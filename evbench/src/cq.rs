//! `cq_embedded` — embedded, no socket. Twelve CQL queries on one tick
//! stream: eight sliding aggregates grouped by symbol at overlaps 1×, 10×
//! and 30×, two filtered projections, one count window, and one `EMIT
//! SPECULATIVE` copy of a 10× window. Windows slide by 500 ms (widths
//! 500 ms, 5 s, 15 s): short enough that every one of them opens, fills
//! and closes dozens of times in a run, and far enough apart that a close
//! (576 rows, and the backlog that builds behind it) occupies 2–4 % of the
//! time, so the median and p90 describe ordinary events and p99 the
//! closes. Event time is the send schedule, 5 %
//! of ticks arrive up to 150 ms late inside a 200 ms lateness bound. Pane
//! updates, watermarks and retractions do most of the work; rules, server
//! and storage are idle.
//!
//! Result latency follows the CEDR definition: a window's row is timed
//! from the due time of the event that closed it (the first arrival that
//! carries the watermark past the window's end), so queue wait is in and
//! window length is out.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use evdb_core::pump::{spawn_pump, PumpHandle};
use evdb_core::EventServer;
use evdb_types::{Record, TimestampMs, Value};

use crate::awake::KeepAwake;
use crate::embedded::{self, tick_record, EmbeddedTarget};
use crate::gen::{self, sym_name, Tick};
use crate::load::Clock;
use crate::run::{self, Params, Report, Stopwatch};
use crate::spec::{self, LATE_NS};
use crate::stats::Sliced;

pub const LATENESS_MS: i64 = 200;
const SLIDE_MS: i64 = 500;

/// How a query's row names the event that caused it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cause {
    /// `window_end` in column 1; emitted when the watermark passes it.
    Watermark,
    /// `window_end` in column 1; first emitted when event time passes it.
    /// Later corrections are caused by the late tick and are not timed.
    EventTime,
    /// The causing tick's `seq` is in this column.
    Seq(usize),
}

pub struct Query {
    pub name: &'static str,
    pub cql: &'static str,
    pub cause: Cause,
}

pub const QUERIES: &[Query] = &[
    Query { name: "a1", cause: Cause::Watermark, cql: "SELECT sym, window_end, count() AS n, sum(volume) AS vol FROM ticks [RANGE 500 ms] GROUP BY sym" },
    Query { name: "a2", cause: Cause::Watermark, cql: "SELECT sym, window_end, avg(price) AS mean FROM ticks [RANGE 500 ms] GROUP BY sym" },
    Query { name: "a3", cause: Cause::Watermark, cql: "SELECT sym, window_end, max(price) AS hi FROM ticks [RANGE 500 ms] GROUP BY sym" },
    Query { name: "a4", cause: Cause::Watermark, cql: "SELECT sym, window_end, count() AS n, sum(volume) AS vol FROM ticks [RANGE 5 s SLIDE 500 ms] GROUP BY sym" },
    Query { name: "a5", cause: Cause::Watermark, cql: "SELECT sym, window_end, avg(price) AS mean FROM ticks [RANGE 5 s SLIDE 500 ms] GROUP BY sym" },
    Query { name: "a6", cause: Cause::Watermark, cql: "SELECT sym, window_end, max(price) AS hi FROM ticks [RANGE 5 s SLIDE 500 ms] GROUP BY sym" },
    Query { name: "a7", cause: Cause::Watermark, cql: "SELECT sym, window_end, count() AS n FROM ticks [RANGE 15 s SLIDE 500 ms] GROUP BY sym" },
    Query { name: "a8", cause: Cause::Watermark, cql: "SELECT sym, window_end, max(price) AS hi FROM ticks [RANGE 15 s SLIDE 500 ms] GROUP BY sym" },
    Query { name: "p1", cause: Cause::Seq(0), cql: "SELECT seq, sym, price FROM ticks WHERE price > 185.0" },
    Query { name: "p2", cause: Cause::Seq(0), cql: "SELECT seq, sym, volume FROM ticks WHERE volume <= 100" },
    Query { name: "r1", cause: Cause::Seq(1), cql: "SELECT count() AS n, max(seq) AS last, sum(volume) AS vol FROM ticks [ROWS 100]" },
    Query { name: "s1", cause: Cause::EventTime, cql: "SELECT sym, window_end, max(price) AS hi FROM ticks [RANGE 5 s SLIDE 500 ms] GROUP BY sym EMIT SPECULATIVE" },
];

/// One delivered delta, as `on_query_updates` handed it over.
pub struct Row {
    pub query: usize,
    pub at_ns: u64,
    pub retraction: bool,
    pub record: Record,
}

pub struct Rig {
    engine: Arc<EventServer>,
    pump: PumpHandle,
    rows: Arc<Mutex<Vec<Row>>>,
}

pub fn register_queries(
    engine: &EventServer,
    mut on_row: impl FnMut(usize) -> Box<dyn Fn(&Record, bool) + Send + Sync>,
) {
    for (i, q) in QUERIES.iter().enumerate() {
        engine.register_cql(q.name, q.cql).expect("query registers");
        let callback = on_row(i);
        engine
            .on_query_updates(q.name, move |row, retraction| callback(row, retraction))
            .expect("subscribes");
    }
}

fn setup(clock: Clock) -> Rig {
    let engine = embedded::engine(LATENESS_MS);
    let rows = Arc::new(Mutex::new(Vec::new()));
    register_queries(&engine, |query| {
        let rows = Arc::clone(&rows);
        Box::new(move |record, retraction| {
            let row = Row {
                query,
                at_ns: clock.now_ns(),
                retraction,
                record: record.clone(),
            };
            rows.lock().expect("sink lock").push(row);
        })
    });
    let pump = spawn_pump(&engine, Duration::from_millis(1));
    Rig { engine, pump, rows }
}

fn column_ts(record: &Record, i: usize) -> Option<i64> {
    record.get(i).and_then(Value::as_timestamp).map(|t| t.0)
}

/// The event whose arrival caused `row`, inferred from the row alone.
pub fn causing_seq(seed: u64, rate: u64, cause: Cause, record: &Record) -> Option<u64> {
    match cause {
        Cause::Watermark => Some(gen::first_seq_reaching(
            seed,
            rate,
            column_ts(record, 1)? + LATENESS_MS,
        )),
        Cause::EventTime => Some(gen::first_seq_reaching(seed, rate, column_ts(record, 1)?)),
        Cause::Seq(i) => record.get(i).and_then(Value::as_int).map(|s| s as u64),
    }
}

/// Multiset of rows after cancelling each retraction against an insert:
/// what a subscriber compacting the delta stream ends up with.
pub fn compact<'a>(rows: impl Iterator<Item = (&'a Record, bool)>) -> BTreeMap<String, i64> {
    let mut net: BTreeMap<String, i64> = BTreeMap::new();
    for (record, retraction) in rows {
        *net.entry(record.to_string()).or_default() += if retraction { -1 } else { 1 };
    }
    net.retain(|_, n| *n != 0);
    net
}

/// Naive recompute of a grouped sliding aggregate over every tick sent:
/// `fold` accumulates a tick into its `(sym, window_end)` cell, `finish`
/// renders the cell as the engine's row would print.
fn reference_windows<A: Default>(
    ticks: &[(i64, Tick)],
    width_ms: i64,
    slide_ms: i64,
    fold: impl Fn(&mut A, &Tick),
    finish: impl Fn(&A) -> Vec<Value>,
) -> BTreeMap<String, i64> {
    let mut cells: BTreeMap<(u64, i64), A> = BTreeMap::new();
    for (ts, tick) in ticks {
        let newest = ts.div_euclid(slide_ms) * slide_ms;
        for k in 0..width_ms / slide_ms {
            fold(
                cells
                    .entry((tick.sym, newest - k * slide_ms + width_ms))
                    .or_default(),
                tick,
            );
        }
    }
    cells
        .iter()
        .map(|((sym, end), acc)| {
            let mut values = vec![
                Value::from(sym_name(*sym).as_str()),
                Value::Timestamp(TimestampMs(*end)),
            ];
            values.extend(finish(acc));
            (Record::new(values).to_string(), 1)
        })
        .collect()
}

#[derive(Default)]
struct CountSum(i64, i64);

fn reference_count_sum(
    ticks: &[(i64, Tick)],
    width_ms: i64,
    slide_ms: i64,
) -> BTreeMap<String, i64> {
    reference_windows::<CountSum>(
        ticks,
        width_ms,
        slide_ms,
        |acc, t| {
            acc.0 += 1;
            acc.1 += t.volume;
        },
        // `sum` yields a float; whole volumes sum exactly in any order.
        |acc| vec![Value::Int(acc.0), Value::Float(acc.1 as f64)],
    )
}

fn reference_max_price(
    ticks: &[(i64, Tick)],
    width_ms: i64,
    slide_ms: i64,
) -> BTreeMap<String, i64> {
    reference_windows::<f64>(
        ticks,
        width_ms,
        slide_ms,
        |acc, t| *acc = acc.max(t.price),
        |acc| vec![Value::Float(*acc)],
    )
}

pub fn run(params: &Params) -> Report {
    let workload = spec::workload("cq_embedded").expect("declared");
    let rate = workload.paced_rate;
    let seed = params.seed;
    let mut report = Report::new();
    let awake = KeepAwake::start();
    let clock = Clock::start();
    let watch = Stopwatch::start();
    let Rig { engine, pump, rows } = setup(clock);

    let stamps = params.stamps(rate);
    let paced = &stamps.paced;
    let mut target = EmbeddedTarget {
        engine: &engine,
        event: Box::new(|seq| {
            let t = gen::tick(seed, seq);
            (TimestampMs(t.event_ts(rate)), tick_record(&t))
        }),
        refused: 0,
    };
    let driven = run::drive(
        &clock,
        &mut target,
        params,
        workload,
        &stamps,
        &mut report,
        watch,
    );
    let refused = target.refused;
    drop(target);
    let (cycles, pump_errors) = (pump.cycles(), pump.errors());
    pump.stop();
    awake.stop(&mut report, "the whole run");
    let live_rows = rows.lock().expect("sink lock").len();
    // End of input: close every window still open, as a final watermark.
    engine
        .flush_stream("ticks", TimestampMs(i64::MAX / 8))
        .expect("flush");
    let rows = rows.lock().expect("sink lock");

    // Result latency: one sample per (query, causing event) — the moment
    // the query's last row for that event arrived, against the event's due
    // time. A window close hands a subscriber 64 rows at once; counting
    // each row would let ten closes a second outvote 7 000 projections.
    let due = |i: usize| paced.due[i].load(std::sync::atomic::Ordering::Relaxed);
    let mut answered: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    let mut misattributed = 0u64;
    let mut speculated = BTreeSet::new();
    for row in &rows[..live_rows] {
        let cause = QUERIES[row.query].cause;
        if cause == Cause::EventTime {
            // Only a window's first emission is timed.
            let key = format!("{:?}{:?}", row.record.get(0), row.record.get(1));
            if row.retraction || !speculated.insert(key) {
                continue;
            }
        }
        let Some(seq) = causing_seq(seed, rate, cause, &row.record) else {
            misattributed += 1;
            continue;
        };
        let Some(i) = paced.index(seq) else { continue };
        let sent = paced.sent[i].load(std::sync::atomic::Ordering::Relaxed);
        // A row cannot precede the offer of the event that caused it.
        misattributed += (row.at_ns < due(i).min(sent)) as u64;
        let at = answered.entry((row.query, i)).or_default();
        *at = (*at).max(row.at_ns);
    }
    let mut sliced = Sliced::new(due(0), (due(paced.len() - 1) - due(0)).max(1));
    let mut late = 0u64;
    for ((_, i), at_ns) in answered {
        let lat = at_ns.saturating_sub(due(i));

        late += (lat > LATE_NS) as u64;
        sliced.add(due(i), lat as f64 / 1e6);
    }
    run::set_result_latency(&mut report, &sliced);

    // Final compacted answers of three queries against a naive recompute.
    let ticks: Vec<(i64, Tick)> = (0..driven.sent)
        .map(|seq| gen::tick(seed, seq))
        .map(|t| (t.event_ts(rate), t))
        .collect();
    let answer = |name: &str| {
        let q = QUERIES
            .iter()
            .position(|q| q.name == name)
            .expect("query exists");
        compact(
            rows.iter()
                .filter(|r| r.query == q)
                .map(|r| (&r.record, r.retraction)),
        )
    };
    let mut wrong = 0u64;
    for (name, reference) in [
        ("a1", reference_count_sum(&ticks, SLIDE_MS, SLIDE_MS)),
        ("a4", reference_count_sum(&ticks, 10 * SLIDE_MS, SLIDE_MS)),
        ("s1", reference_max_price(&ticks, 10 * SLIDE_MS, SLIDE_MS)),
    ] {
        let got = answer(name);
        let differing = reference
            .iter()
            .filter(|(k, n)| got.get(*k) != Some(n))
            .count()
            + got.keys().filter(|k| !reference.contains_key(*k)).count();
        report.check(differing == 0, || {
            format!(
                "{name}: {differing} rows differ from the recompute ({} expected, {} delivered)",
                reference.len(),
                got.len()
            )
        });
        wrong += differing as u64;
    }
    // The cheap queries, by count.
    let count = |name: &str| answer(name).values().sum::<i64>() as usize;
    let p1 = ticks.iter().filter(|(_, t)| t.price > 185.0).count();
    let p2 = ticks.iter().filter(|(_, t)| t.volume <= 100).count();
    for (name, want) in [("p1", p1), ("p2", p2), ("r1", ticks.len() / 100)] {
        let got = count(name);
        report.check(got == want, || {
            format!("{name}: {got} rows delivered, {want} expected")
        });
        wrong += got.abs_diff(want) as u64;
    }
    let stats = engine.runtime().cq_delta_stats();
    report.check(stats.late_events == 0, || {
        format!("{} ticks were dropped as late", stats.late_events)
    });
    report.check(misattributed == 0, || {
        format!("{misattributed} rows arrived before the event inferred as their cause")
    });

    let late_acks = run::summarize_acks(&mut report, paced, driven.lags_ms, rate);
    report.set("throughput_evps", driven.throughput_evps);
    report.attempted = driven.sent;
    report.failed = refused + wrong + late + late_acks + misattributed + stats.late_events;
    report.check(driven.drained, || {
        "events were still unevaluated 5 s after a phase ended".into()
    });
    report.check(pump_errors == 0, || {
        format!("{pump_errors} pump cycles errored")
    });

    crate::probe::engine_counts(&mut report, &engine, Some(cycles));
    report.set(
        "cq.rows_out_per_event",
        live_rows as f64 / driven.sent.max(1) as f64,
    );
    run::client_spans(&mut report.trace, &stamps);
    if params.traced {
        crate::probe::cq(&mut report, seed, rate);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick_at(sym: u64, price: f64, volume: i64) -> Tick {
        Tick {
            seq: 0,
            sym,
            price,
            volume,
            delay_ms: 0,
        }
    }

    /// Hand-checked: three ticks, 200 ms windows sliding by 100 ms.
    #[test]
    fn reference_windows_agree_with_a_hand_checked_fixture() {
        let ticks = vec![
            (1_000_050, tick_at(1, 110.0, 5)),
            (1_000_120, tick_at(1, 150.5, 7)),
            (1_000_190, tick_at(2, 120.0, 1)),
        ];
        // A tick at 1 000 050 is in [999 900, 1 000 100) and [1 000 000,
        // 1 000 200); the two at 1 000 1xx are in [1 000 000, 1 000 200)
        // and [1 000 100, 1 000 300).
        let got = reference_count_sum(&ticks, 200, 100);
        let want: BTreeMap<String, i64> = [
            "['S01', @1000100, 1, 5.0]",
            "['S01', @1000200, 2, 12.0]",
            "['S01', @1000300, 1, 7.0]",
            "['S02', @1000200, 1, 1.0]",
            "['S02', @1000300, 1, 1.0]",
        ]
        .into_iter()
        .map(|row| (row.to_string(), 1))
        .collect();
        assert_eq!(got, want);
        let hi = reference_max_price(&ticks, 200, 100);
        assert_eq!(hi.get("['S01', @1000200, 150.5]"), Some(&1));
        assert_eq!(hi.get("['S01', @1000100, 110.0]"), Some(&1));
        // Tumbling: one cell per tick's own pane.
        assert_eq!(reference_count_sum(&ticks, 100, 100).len(), 3);
    }

    #[test]
    fn compaction_cancels_retractions_against_inserts() {
        let stale = Record::from_iter([Value::from("S01"), Value::Int(1)]);
        let fresh = Record::from_iter([Value::from("S01"), Value::Int(2)]);
        let deltas = [(&stale, false), (&stale, true), (&fresh, false)];
        let net = compact(deltas.into_iter());
        assert_eq!(net.len(), 1);
        assert_eq!(net.get(&fresh.to_string()), Some(&1));
    }

    #[test]
    fn a_row_names_its_causing_event() {
        let (seed, rate) = (9, 4_000);
        let end = gen::TS_BASE + 5_000;
        let window = Record::from_iter([
            Value::from("S01"),
            Value::Timestamp(TimestampMs(end)),
            Value::Int(3),
        ]);
        // Watermark rows wait out the lateness bound; speculative rows do not.
        let wm = causing_seq(seed, rate, Cause::Watermark, &window).unwrap();
        let et = causing_seq(seed, rate, Cause::EventTime, &window).unwrap();
        assert!(gen::tick(seed, wm).event_ts(rate) >= end + LATENESS_MS);
        assert!(gen::tick(seed, et).event_ts(rate) >= end);
        assert!((wm - et).abs_diff(LATENESS_MS as u64 * rate / 1_000) < 200);
        let projected =
            Record::from_iter([Value::Int(77), Value::from("S01"), Value::Float(190.0)]);
        assert_eq!(causing_seq(seed, rate, Cause::Seq(0), &projected), Some(77));
        assert_eq!(causing_seq(seed, rate, Cause::Watermark, &projected), None);
        assert_eq!(QUERIES.len(), 12);
    }
}
