//! Per-query equivalence of shared pane tables (DESIGN.md D5, D15).
//!
//! Windowed aggregates over one stream with one pane width and group-by
//! fold each event once into a shared pane table, and a failing event
//! costs only its own query. Neither may show in any query's answer: on
//! random query sets, event streams and batch cuts, each query's
//! subscriber delta log and op stats must equal those of the same query
//! registered alone in its own runtime and fed the same events.
//!
//! Each case draws 2–6 queries over one or two streams: aggregates that
//! share pane and group-by and some that do not, both consistency
//! levels, a computed argument, a `WHERE` aggregate, a `HAVING`, and a
//! head filter that overflows on some events. Queries are registered and
//! dropped mid-stream; ticks arrive later than the lateness bound, event
//! time jumps, and the input is cut into random batches.

use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use evdb::cq::aggregate::AggMode;
use evdb::cq::cql::{compile, parse_query};
use evdb::cq::{OpStats, StreamRuntime};
use evdb::expr::BatchScratch;
use evdb::types::{DataType, Event, EventId, Record, Schema, TimestampMs, Value};

const LATENESS_MS: i64 = 50;
const STREAMS: [&str; 2] = ["a", "b"];

fn schema() -> Arc<Schema> {
    Schema::of(&[("sym", DataType::Str), ("px", DataType::Float), ("qty", DataType::Int)])
}

/// One random query: its CQL, and the batches it registers and drops at.
struct Plan {
    cql: String,
    from: usize,
    until: Option<usize>,
}

fn random_query(rng: &mut StdRng, streams: usize) -> String {
    let stream = STREAMS[rng.gen_range(0..streams)];
    if rng.gen_bool(0.08) {
        // A head filter that overflows when qty ≥ 4.
        return format!(
            "SELECT sym, qty FROM {stream} WHERE qty * 2305843009213693952 > 0"
        );
    }
    let slide = [100, 200][rng.gen_range(0..2usize)];
    let width = slide * rng.gen_range(1..4i64);
    let window = if width == slide {
        format!("[RANGE {width} ms]")
    } else {
        format!("[RANGE {width} ms SLIDE {slide} ms]")
    };
    let pool = [
        "count() AS n",
        "sum(qty) AS vol",
        "avg(px) AS mean",
        "max(px) AS hi",
        "min(px) AS lo",
        "first(px) AS fst",
        "last(qty) AS lst",
        "stddev(px) AS sd",
    ];
    let mut items: Vec<String> = Vec::new();
    for item in pool {
        if rng.gen_bool(0.35) {
            items.push(item.to_string());
        }
    }
    if rng.gen_bool(0.12) {
        items.push("sum(px * qty) AS notional".into()); // computed argument
    }
    if items.is_empty() {
        items.push("count() AS n".into());
    }
    let grouped = rng.gen_bool(0.7);
    let mut select = vec!["window_end".to_string()];
    if grouped {
        select.insert(0, "sym".into());
    }
    select.extend(items);
    let mut cql = format!("SELECT {} FROM {stream} {window}", select.join(", "));
    if rng.gen_bool(0.12) {
        cql.push_str(" WHERE qty > 2");
    }
    if grouped {
        cql.push_str(" GROUP BY sym");
    }
    if rng.gen_bool(0.15) {
        cql.push_str(" HAVING count() > 1");
    }
    if rng.gen_bool(0.35) {
        cql.push_str(" EMIT SPECULATIVE");
    }
    cql
}

/// Random ticks over `streams` streams: event time mostly advances,
/// some ticks arrive later than the lateness bound, and event time
/// sometimes jumps.
fn random_events(rng: &mut StdRng, streams: usize, n: usize) -> Vec<Event> {
    let schema = schema();
    let mut now = 1_000i64;
    (0..n)
        .map(|i| {
            now += rng.gen_range(0..12);
            if rng.gen_bool(0.01) {
                now += rng.gen_range(500..3_000); // a gap in event time
            }
            let ts = if rng.gen_bool(0.08) {
                now - rng.gen_range(0..300) // late, often past the bound
            } else {
                now
            };
            let sym = ["x", "y", "z"][rng.gen_range(0..3usize)];
            let qty = if rng.gen_bool(0.5) { rng.gen_range(1..6) } else { rng.gen_range(1..500) };
            let px = rng.gen_range(0..10_000) as f64 / 100.0;
            Event::new(
                EventId(i as u64),
                STREAMS[rng.gen_range(0..streams)],
                TimestampMs(ts),
                Record::from_iter([Value::from(sym), Value::Float(px), Value::Int(qty)]),
                Arc::clone(&schema),
            )
        })
        .collect()
}

type Log = Arc<Mutex<Vec<String>>>;

fn runtime() -> StreamRuntime {
    let rt = StreamRuntime::new(LATENESS_MS);
    for s in STREAMS {
        rt.create_stream(s, schema()).unwrap();
    }
    rt
}

fn register(rt: &StreamRuntime, name: &str, cql: &str) -> Log {
    let q = parse_query(cql).unwrap();
    let pipeline = compile(&q, &schema(), AggMode::Incremental).unwrap();
    rt.register_query_with(name, &q.from, pipeline, q.consistency).unwrap();
    let log: Log = Arc::default();
    let sink = Arc::clone(&log);
    rt.subscribe(
        name,
        Arc::new(move |e: &Event| {
            sink.lock().unwrap().push(format!(
                "{} {} {} {}",
                e.id.0, e.timestamp.0, e.retraction, e.payload
            ))
        }),
    )
    .unwrap();
    log
}

/// What one query answered: its delta log and its op stats, read at its
/// drop or at the end.
#[derive(Debug, PartialEq)]
struct Answer {
    log: Vec<String>,
    stats: OpStats,
}

/// Feed `batches` into a runtime holding the queries of `plans` selected
/// by `only` (all of them when `None`), registering and dropping each at
/// its batch; flush both streams at the end.
fn run(plans: &[Plan], batches: &[&[Event]], only: Option<usize>) -> (Vec<Option<Answer>>, usize) {
    let rt = runtime();
    let mut logs: Vec<Option<Log>> = plans.iter().map(|_| None).collect();
    let mut answers: Vec<Option<Answer>> = plans.iter().map(|_| None).collect();
    let mut scratch = BatchScratch::new();
    let mut out = Vec::new();
    let mut tables = 0;
    let selected = |k: usize| only.is_none_or(|o| o == k);
    let close = |rt: &StreamRuntime, k: usize, log: &Log| Answer {
        log: log.lock().unwrap().clone(),
        stats: rt.query_stats(&format!("q{k}")).unwrap(),
    };
    for (b, batch) in batches.iter().enumerate() {
        for (k, plan) in plans.iter().enumerate() {
            if selected(k) && plan.from == b {
                logs[k] = Some(register(&rt, &format!("q{k}"), &plan.cql));
            }
            if selected(k) && plan.until == Some(b) {
                if let Some(log) = logs[k].take() {
                    answers[k] = Some(close(&rt, k, &log));
                    rt.drop_query(&format!("q{k}")).unwrap();
                }
            }
        }
        tables = tables.max(rt.pane_tables());
        rt.push_events(batch, &mut scratch, &mut out);
    }
    for s in STREAMS {
        let _ = rt.flush(s, TimestampMs(i64::MAX / 8));
    }
    for (k, log) in logs.iter().enumerate() {
        if let Some(log) = log {
            answers[k] = Some(close(&rt, k, log));
        }
    }
    (answers, tables)
}

#[test]
fn each_query_answers_as_if_registered_alone() {
    let (mut shared_tables, mut shareable) = (0, 0);
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let streams = rng.gen_range(1..=2usize);
        let n = rng.gen_range(150..500);
        let events = random_events(&mut rng, streams, n);
        // Random batch cuts.
        let mut batches: Vec<&[Event]> = Vec::new();
        let mut rest = &events[..];
        while !rest.is_empty() {
            let n = rng.gen_range(1..=rest.len().min(40));
            let (head, tail) = rest.split_at(n);
            batches.push(head);
            rest = tail;
        }
        let plans: Vec<Plan> = (0..rng.gen_range(2..=6))
            .map(|_| {
                let from = if rng.gen_bool(0.7) { 0 } else { rng.gen_range(0..batches.len()) };
                let until = if rng.gen_bool(0.2) {
                    Some(rng.gen_range(from..=batches.len())).filter(|b| *b < batches.len())
                } else {
                    None
                };
                Plan { cql: random_query(&mut rng, streams), from, until }
            })
            .collect();
        shareable += plans
            .iter()
            .filter(|p| !p.cql.contains("WHERE") && !p.cql.contains('*'))
            .count();
        let (together, tables) = run(&plans, &batches, None);
        shared_tables += tables;
        for (k, plan) in plans.iter().enumerate() {
            let (alone, _) = run(&plans, &batches, Some(k));
            assert_eq!(
                together[k], alone[k],
                "seed {seed}: query q{k} `{}` answers differently beside {:?}",
                plan.cql,
                plans.iter().map(|p| p.cql.as_str()).collect::<Vec<_>>()
            );
        }
    }
    // The property is only worth something if tables were shared.
    assert!(
        shared_tables < shareable,
        "no pane table was shared ({shared_tables} tables for {shareable} shareable queries)"
    );
}

/// A tick every member of a pane table drops as late is folded nowhere:
/// it adds no pane cell (no member would ever read it) and counts as late
/// at each member. Random same-pane aggregates at both levels, then ticks
/// behind every member's horizon.
#[test]
fn a_tick_every_member_drops_folds_into_no_pane() {
    for seed in 0..50u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let rt = runtime();
        let k = rng.gen_range(1..=4);
        for q in 0..k {
            let width = 100 * rng.gen_range(1..4i64);
            let emit = if rng.gen_bool(0.5) { " EMIT SPECULATIVE" } else { "" };
            let cql = format!(
                "SELECT sym, count() AS n FROM a [RANGE {width} ms SLIDE 100 ms] GROUP BY sym{emit}"
            );
            register(&rt, &format!("q{q}"), &cql);
        }
        assert_eq!(rt.pane_tables(), 1, "seed {seed}");
        let (mut scratch, mut out) = (BatchScratch::new(), Vec::new());
        let tick = |ts: i64, sym: &str| {
            Event::new(
                EventId(ts as u64),
                "a",
                TimestampMs(ts),
                Record::from_iter([Value::from(sym), Value::Float(1.0), Value::Int(1)]),
                schema(),
            )
        };
        let live: Vec<Event> = (0..200).map(|i| tick(1_000 + 10 * i, "x")).collect();
        rt.push_events(&live, &mut scratch, &mut out);
        let memory = rt.window_memory();
        let late: Vec<u64> = (0..k).map(|q| rt.query_stats(&format!("q{q}")).unwrap().late_events).collect();
        // Behind every horizon (the widest window is 300 ms, the lateness
        // 50 ms), in a group no live tick has.
        rt.push_events(&[tick(1_000, "w")], &mut scratch, &mut out);
        assert_eq!(rt.window_memory(), memory, "seed {seed}: a dropped tick took a pane cell");
        for (q, before) in late.iter().enumerate() {
            let now = rt.query_stats(&format!("q{q}")).unwrap().late_events;
            assert_eq!(now, before + 1, "seed {seed}: q{q} did not count the late tick");
        }
    }
}
