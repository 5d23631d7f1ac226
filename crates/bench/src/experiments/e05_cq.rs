//! E5 — Continuous-query throughput: windowed aggregation, incremental
//! (pane-based) vs recompute (DESIGN.md D5), across window/slide shapes.
//!
//! Expected shape: for tumbling windows the two modes are close (each
//! event is touched once either way); for sliding windows with many
//! overlaps the recompute mode rescans every event `width/slide` times
//! and falls behind. The watermark advances after every event, as the
//! runtime advances it, so a watermark that closes nothing is part of
//! each event's price: incremental ns/event must not grow with overlap.

use std::time::Instant;

use evdb_cq::aggregate::{AggFunc, AggMode, AggSpec, WindowAggregateOp};
use evdb_cq::op::Operator;
use evdb_cq::window::WindowSpec;
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

fn run_mode(mode: AggMode, window: WindowSpec, events: &[Event]) -> (f64, usize) {
    let schema = tick_schema();
    let mut op = WindowAggregateOp::new(&schema, window, &["sym"], aggs(), mode).unwrap();
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
        "E5: windowed aggregation — incremental (panes) vs recompute",
        &["window", "slide", "overlap", "incr_evt/s", "incr_ns/evt", "recomp_evt/s", "ratio", "windows"],
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
        let (inc_rate, w1) = run_mode(AggMode::Incremental, w, &events);
        let (rec_rate, w2) = run_mode(AggMode::Recompute, w, &events);
        assert_eq!(w1, w2, "modes must emit the same windows");
        table.row(vec![
            format!("{}s", width / 1_000),
            format!("{}s", slide / 1_000),
            format!("{}x", width / slide),
            fmt_rate(inc_rate),
            format!("{:.0}", 1e9 / inc_rate),
            fmt_rate(rec_rate),
            format!("{:.1}x", inc_rate / rec_rate),
            w1.to_string(),
        ]);
    }
    table.note(format!(
        "{n} ticks {TICK_MS} ms apart, 16 symbols, group by sym, 3 aggregates"
    ));
    table.note("watermark after every event (runtime cadence), final flush included");
    table.note("recompute rescans each event width/slide times; panes touch it once (D5)");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_agree_and_incremental_wins_on_overlap() {
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 4);
        // The 30x-overlap row should favour incremental.
        let ratio: f64 = t.rows[3][6].trim_end_matches('x').parse().unwrap();
        assert!(ratio > 1.0, "ratio {ratio}");
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
