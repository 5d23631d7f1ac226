//! E5 — Continuous-query throughput: pane-based windowed aggregation
//! (DESIGN.md D5) across window/slide shapes.
//!
//! Expected shape: an event is folded into one pane however many sliding
//! windows overlap it. The watermark advances after every event, as the
//! runtime advances it, so a watermark that closes nothing is part of
//! each event's price: ns/event must not grow with overlap.
//!
//! A second table ([`run_sharing`]) registers 1, 3 and 9 grouped
//! aggregates over the same 500 ms panes with a `StreamRuntime` and
//! drives them through `push_events`: they share one pane table, so an
//! event is folded once however many of them there are (D5).

use std::time::Instant;

use evdb_cq::aggregate::{AggFunc, AggMode, AggSpec, WindowAggregateOp};
use evdb_cq::cql::{compile, parse_query};
use evdb_cq::op::Operator;
use evdb_cq::window::WindowSpec;
use evdb_cq::StreamRuntime;
use evdb_expr::BatchScratch;
use evdb_types::{Event, EventId, TimestampMs};

use super::{Scale, Table};
use crate::fmt_rate;
use crate::workloads::{market_ticks, tick_schema};

/// Event-time spacing of the ticks.
const TICK_MS: i64 = 5;

fn aggs() -> Vec<AggSpec> {
    vec![
        AggSpec {
            func: AggFunc::Count,
            field: None,
            expr: None,
            out_name: "n".into(),
        },
        AggSpec {
            func: AggFunc::Avg,
            field: Some("px".into()),
            expr: None,
            out_name: "apx".into(),
        },
        AggSpec {
            func: AggFunc::Max,
            field: Some("px".into()),
            expr: None,
            out_name: "hi".into(),
        },
    ]
}

fn run_window(window: WindowSpec, events: &[Event]) -> (f64, usize) {
    let schema = tick_schema();
    let mut op = WindowAggregateOp::new(&schema, window, &["sym"], aggs()).unwrap();
    let mut out = Vec::new();
    let t0 = Instant::now();
    let mut produced = 0usize;
    for e in events {
        op.on_event(e, &mut out).unwrap();
        // The runtime's cadence: a watermark after every event (ticks
        // arrive in timestamp order, so it is the event's own time).
        op.on_watermark(e.timestamp, &mut out).unwrap();
        produced += out.len();
        out.clear();
    }
    op.on_watermark(TimestampMs(i64::MAX / 2), &mut out).unwrap();
    produced += out.len();
    (
        events.len() as f64 / t0.elapsed().as_secs_f64(),
        produced,
    )
}

/// Run E5.
pub fn run(scale: Scale) -> Table {
    let n = scale.pick(40_000, 500_000);
    // One tick every 5 ms: even the quick run spans 200 s of event time,
    // so the 60 s windows spend most of it in their steady state (30
    // retained panes, one window closing every 2 s).
    let schema = tick_schema();
    let events: Vec<Event> = market_ticks(n, 16, TICK_MS, 51)
        .iter()
        .enumerate()
        .map(|(i, t)| {
            Event::new(
                EventId(i as u64),
                "ticks",
                t.ts,
                t.record(),
                std::sync::Arc::clone(&schema),
            )
        })
        .collect();

    let mut table = Table::new(
        "E5: windowed aggregation over panes",
        &["window", "slide", "overlap", "evt/s", "ns/evt", "windows"],
    );
    let shapes = [
        (1_000i64, 1_000i64),
        (10_000, 10_000),
        (10_000, 1_000),
        (60_000, 2_000),
    ];
    for (width, slide) in shapes {
        let w = if width == slide {
            WindowSpec::Tumbling { width_ms: width }
        } else {
            WindowSpec::Sliding {
                width_ms: width,
                slide_ms: slide,
            }
        };
        let (rate, windows) = run_window(w, &events);
        table.row(vec![
            format!("{}s", width / 1_000),
            format!("{}s", slide / 1_000),
            format!("{}x", width / slide),
            fmt_rate(rate),
            format!("{:.0}", 1e9 / rate),
            windows.to_string(),
        ]);
    }
    table.note(format!(
        "{n} ticks {TICK_MS} ms apart, 16 symbols, group by sym, 3 aggregates"
    ));
    table.note("watermark after every event (runtime cadence), final flush included");
    table.note("panes touch each event once, whatever the overlap (D5)");
    table
}

/// Nine grouped aggregates over 500 ms panes — `cq_embedded`'s shapes:
/// widths 500 ms, 5 s and 15 s, one speculative.
const SAME_PANE: [&str; 9] = [
    "SELECT sym, window_end, count() AS n, sum(qty) AS vol FROM ticks [RANGE 500 ms] GROUP BY sym",
    "SELECT sym, window_end, avg(px) AS mean FROM ticks [RANGE 500 ms] GROUP BY sym",
    "SELECT sym, window_end, max(px) AS hi FROM ticks [RANGE 500 ms] GROUP BY sym",
    "SELECT sym, window_end, count() AS n, sum(qty) AS vol FROM ticks [RANGE 5 s SLIDE 500 ms] GROUP BY sym",
    "SELECT sym, window_end, avg(px) AS mean FROM ticks [RANGE 5 s SLIDE 500 ms] GROUP BY sym",
    "SELECT sym, window_end, max(px) AS hi FROM ticks [RANGE 5 s SLIDE 500 ms] GROUP BY sym",
    "SELECT sym, window_end, count() AS n FROM ticks [RANGE 15 s SLIDE 500 ms] GROUP BY sym",
    "SELECT sym, window_end, max(px) AS hi FROM ticks [RANGE 15 s SLIDE 500 ms] GROUP BY sym",
    "SELECT sym, window_end, max(px) AS hi FROM ticks [RANGE 5 s SLIDE 500 ms] GROUP BY sym EMIT SPECULATIVE",
];

/// `events` through a runtime holding the first `k` of [`SAME_PANE`],
/// in batches of 32: (ns per event, rows emitted, pane tables).
fn run_shared(k: usize, events: &[Event]) -> (f64, u64, usize) {
    let rt = StreamRuntime::new(200);
    let schema = tick_schema();
    rt.create_stream("ticks", std::sync::Arc::clone(&schema)).unwrap();
    for (i, cql) in SAME_PANE[..k].iter().enumerate() {
        let q = parse_query(cql).unwrap();
        let pipeline = compile(&q, &schema, AggMode::Incremental).unwrap();
        rt.register_query_with(&format!("a{i}"), "ticks", pipeline, q.consistency)
            .unwrap();
    }
    let (mut scratch, mut out) = (BatchScratch::new(), Vec::new());
    let mut rows = 0u64;
    let t0 = Instant::now();
    for batch in events.chunks(32) {
        rt.push_events(batch, &mut scratch, &mut out);
        rows += out.iter().flatten().map(|r| r.len() as u64).sum::<u64>();
    }
    let ns = t0.elapsed().as_nanos() as f64 / events.len() as f64;
    (ns, rows, rt.pane_tables())
}

/// Run E5's sharing table: 1, 3 and 9 same-pane grouped aggregates.
pub fn run_sharing(scale: Scale) -> Table {
    let n = scale.pick(60_000, 600_000);
    // 30 ticks per millisecond over 64 symbols, as `cq_embedded` offers
    // them: a 500 ms pane holds 15 000 ticks.
    let schema = tick_schema();
    let events: Vec<Event> = market_ticks(n, 64, 0, 53)
        .iter()
        .enumerate()
        .map(|(i, t)| {
            Event::new(
                EventId(i as u64),
                "ticks",
                TimestampMs(i as i64 / 30),
                t.record(),
                std::sync::Arc::clone(&schema),
            )
        })
        .collect();
    let mut table = Table::new(
        "E5b: same-pane grouped aggregates through the runtime — one pane table",
        &["queries", "pane_tables", "ns/evt", "evt/s", "vs_1_query", "rows"],
    );
    let mut one = f64::NAN;
    for k in [1, 3, 9] {
        let (ns, rows, tables) = run_shared(k, &events);
        if k == 1 {
            one = ns;
        }
        table.row(vec![
            k.to_string(),
            tables.to_string(),
            format!("{ns:.0}"),
            fmt_rate(1e9 / ns),
            format!("{:.2}x", ns / one),
            rows.to_string(),
        ]);
    }
    table.note(format!(
        "{n} ticks, 30 per ms, 64 symbols, batches of 32 through StreamRuntime::push_events"
    ));
    table.note("queries share pane width (500 ms) and GROUP BY sym: an event is folded once (D5)");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_same_pane_queries_cost_at_most_three_times_one() {
        // D5's sharing contract: a tick is keyed, probed and folded once
        // however many same-pane aggregates read it; each adds only its
        // own O(1) steps. Best of three screens out CI neighbours.
        let (mut one, mut nine) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            let t = run_sharing(Scale::Quick);
            let ns = |row: usize| -> f64 { t.rows[row][2].parse().unwrap() };
            one = one.min(ns(0));
            nine = nine.min(ns(2));
            assert_eq!(t.rows[2][1], "1", "the nine queries share one table");
        }
        let ratio = nine / one;
        assert!(ratio <= 3.0, "9 same-pane queries cost {ratio:.2}x one query's ns/event");
    }

    #[test]
    fn incremental_cost_per_event_does_not_grow_with_overlap() {
        // D5's cost contract: an event pays for its pane, not for the
        // width/slide windows that overlap it. Each row's best of three
        // runs screens out CI neighbours.
        let (mut tumbling, mut overlapped) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            let t = run(Scale::Quick);
            let ns = |row: usize| -> f64 { t.rows[row][4].parse().unwrap() };
            tumbling = tumbling.min(ns(0));
            overlapped = overlapped.min(ns(3));
        }
        let ratio = overlapped / tumbling;
        assert!(ratio <= 2.0, "30x-overlap ns/event is {ratio:.1}x the 1 s tumbling row's");
    }
}
