//! Chunking-invariance suite (DESIGN.md D15): the answer does not
//! depend on how the input is cut into batches.
//!
//! There is one evaluation path — `EventServer::evaluate_events` over
//! `StreamRuntime::push_events` — and no per-event twin to hold it
//! against, so the oracle is the path itself at `N = 1`: any cut of a
//! random event sequence must produce what the all-singletons cut
//! produces. Compared per case: every query's delta log (derived rows
//! with their retraction signs, in delivery order), the delivered
//! notification sequence, the error count, the pump totals, the engine
//! counters and `cq_delta_stats` — through the server, through the
//! runtime alone, and for the history-replay feed.
//!
//! The sequences cover what makes batching delicate: two streams
//! interleaved, ~5 % late ticks (some inside the allowed lateness, some
//! beyond it), WAL-style duplicate ids with the dedup window on, a head
//! filter and an alert rule that each *error* on some records, windowed
//! aggregates at both consistency levels, a head-filtered projection, a
//! keyed detector, and a VIRT policy whose decisions depend on per-key
//! history.
//!
//! Cross-query interleaving is the one thing a cut may change (inside a
//! batch, subscribers run query-major), which is why delta logs are
//! compared per query.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use evdb::analytics::detector::UpdatePolicy;
use evdb::analytics::ThresholdModel;
use evdb::core::metrics::StageBatch;
use evdb::core::server::{EvalScratch, PumpStats, ServerConfig};
use evdb::core::{EventServer, VirtPolicy};
use evdb::cq::aggregate::AggMode;
use evdb::cq::op::OpStats;
use evdb::cq::StreamRuntime;
use evdb::expr::BatchScratch;
use evdb::types::{DataType, Event, EventId, Record, Result, Schema, SimClock, TimestampMs, Value};

const LATENESS_MS: i64 = 60;
const STREAMS: [&str; 2] = ["s0", "s1"];

/// (name, stream, CQL). The head filter of `errs` overflows — checked
/// integer arithmetic, an evaluation error — when `qty = 11`; `spec`
/// revises its panes when a late tick lands.
const QUERIES: [(&str, &str, &str); 5] = [
    (
        "avg",
        "s0",
        "SELECT sym, avg(px) AS apx FROM s0 [RANGE 200 ms] GROUP BY sym",
    ),
    (
        "errs",
        "s0",
        "SELECT sym, px * 2 AS dbl FROM s0 WHERE qty * 922337203685477580 > 0",
    ),
    (
        "spec",
        "s0",
        "SELECT count() AS n FROM s0 [RANGE 150 ms] EMIT SPECULATIVE",
    ),
    (
        "slide",
        "s1",
        "SELECT sym, max(px) AS hi FROM s1 [RANGE 300 ms SLIDE 100 ms] WHERE px > 20 GROUP BY sym",
    ),
    ("rows", "s1", "SELECT count() AS n FROM s1 [ROWS 3]"),
];

fn schema() -> Arc<Schema> {
    Schema::of(&[
        ("sym", DataType::Str),
        ("px", DataType::Float),
        ("qty", DataType::Int),
    ])
}

/// One generated tick: (stream, time step, symbol, price, quantity,
/// late selector, duplicate selector).
type GenTick = (u8, i64, u8, i64, i64, u8, u8);

fn arb_ticks() -> impl Strategy<Value = Vec<GenTick>> {
    proptest::collection::vec(
        (0u8..2, 0i64..40, 0u8..4, 0i64..100, 0i64..12, 0u8..20, 0u8..20),
        1..90,
    )
}

/// Batch lengths; the cut cycles through them until the input is used up.
fn arb_cut() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..12, 1..8)
}

/// Materialize the generated ticks as events. Event time advances with
/// each tick; a late tick (selector 0, ~5 %) steps back by up to 380 ms
/// instead, and a duplicate (selector 0, ~5 %) re-delivers an earlier
/// event verbatim, id included.
fn events(ticks: &[GenTick]) -> Vec<Event> {
    let schema = schema();
    let mut out: Vec<Event> = Vec::with_capacity(ticks.len());
    let mut clock = 1_000i64;
    for (i, &(stream, step, sym, px, qty, late, dup)) in ticks.iter().enumerate() {
        if dup == 0 && !out.is_empty() {
            out.push(out[(px as usize) % out.len()].clone());
            continue;
        }
        clock += step;
        let ts = if late == 0 { clock - 20 * (qty + 8) } else { clock };
        out.push(Event::new(
            EventId(i as u64),
            STREAMS[stream as usize],
            TimestampMs(ts),
            Record::from_iter([
                Value::from(format!("S{sym}").as_str()),
                Value::Float(px as f64),
                Value::Int(qty),
            ]),
            Arc::clone(&schema),
        ));
    }
    out
}

/// Split `events` by cycling through the batch lengths in `cut`.
fn chunks<'a>(events: &'a [Event], cut: &[usize]) -> Vec<&'a [Event]> {
    let mut out = Vec::new();
    let mut rest = events;
    for len in cut.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (head, tail) = rest.split_at((*len).min(rest.len()));
        out.push(head);
        rest = tail;
    }
    out
}

/// Per-query delta log: each derived row as delivered to a subscriber.
type DeltaLogs = Arc<Mutex<BTreeMap<&'static str, Vec<String>>>>;

fn row(e: &Event) -> String {
    format!("{} {} {}", e.timestamp.0, e.payload, e.is_retraction())
}

fn derived(r: &Result<Vec<Event>>) -> std::result::Result<Vec<String>, String> {
    match r {
        Ok(events) => Ok(events.iter().map(row).collect()),
        Err(e) => Err(e.to_string()),
    }
}

/// Everything a server-level feed is compared on.
#[derive(Debug, PartialEq)]
struct ServerOutcome {
    deltas: BTreeMap<&'static str, Vec<String>>,
    /// Delivered notifications, in delivery order.
    notes: Vec<(String, String, String, i64, bool)>,
    errors: u64,
    totals: PumpStats,
    /// (processed, derived, deviations, notifications, suppressed).
    counters: (u64, u64, u64, u64, u64),
    delta_stats: OpStats,
    dup_dropped: u64,
}

fn server_outcome(events: &[Event], cut: &[usize]) -> ServerOutcome {
    let server = EventServer::in_memory(ServerConfig {
        clock: SimClock::new(TimestampMs(0)),
        lateness_ms: LATENESS_MS,
        virt: VirtPolicy {
            suppression_window_ms: 5_000,
            max_per_key_per_window: 4,
            rate_window_ms: 10_000,
            ..Default::default()
        },
        ..Default::default()
    })
    .unwrap();
    for stream in STREAMS {
        server.create_stream(stream, schema()).unwrap();
    }
    let deltas: DeltaLogs = Arc::default();
    for (name, _, cql) in QUERIES {
        server.register_cql(name, cql).unwrap();
        let log = Arc::clone(&deltas);
        server
            .on_query(
                name,
                Arc::new(move |e: &Event| log.lock().unwrap().entry(name).or_default().push(row(e))),
            )
            .unwrap();
    }
    for stream in STREAMS {
        server
            .add_alert_rule("hot", stream, "px > 60", 1.0, Some("sym"))
            .unwrap();
        server
            .add_alert_rule("lot", stream, "sym = 'S1' AND qty BETWEEN 3 AND 9", 2.0, None)
            .unwrap();
        // Posted under the key `qty * …`, which overflows when `qty >=
        // 10`: the failed key admits the rule and verification reports it.
        server
            .add_alert_rule("big", stream, "qty * 1024819115206086200 > 0", 3.0, Some("sym"))
            .unwrap();
        // Two rules sharing the key `qty % 4`: as access path and, behind
        // a field equality, as second constraint.
        server
            .add_alert_rule("mod0", stream, "qty % 4 = 0 AND px > 30", 1.5, Some("sym"))
            .unwrap();
        server
            .add_alert_rule("mod1", stream, "sym = 'S2' AND qty % 4 = 1", 2.5, None)
            .unwrap();
    }
    server
        .add_detector("band", "s1", "px", Some("sym"), UpdatePolicy::Always, || {
            Box::new(ThresholdModel::new(5.0, 80.0))
        })
        .unwrap();

    let (mut stage, mut scratch) = (StageBatch::default(), EvalScratch::default());
    let mut totals = PumpStats::default();
    let mut errors = 0;
    for chunk in chunks(events, cut) {
        let mut batch = chunk.to_vec();
        let mut notes = Vec::new();
        let (derived, errs) =
            server.evaluate_events(&mut batch, server.now(), &mut stage, &mut scratch, &mut notes);
        totals.captured += chunk.len() as u64;
        totals.derived += derived;
        totals.notified += server.deliver_batch(notes);
        errors += errs;
    }
    let snap = server.metrics().snapshot();
    let notes = server
        .notifications()
        .drain_delivered()
        .into_iter()
        .map(|n| (n.key.to_string(), n.title.to_string(), n.body, n.timestamp.0, n.is_retraction))
        .collect();
    let deltas = deltas.lock().unwrap().clone();
    ServerOutcome {
        deltas,
        notes,
        errors,
        totals,
        counters: (
            snap.events_processed,
            snap.derived_events,
            snap.deviations,
            snap.notifications,
            snap.suppressed,
        ),
        delta_stats: server.runtime().cq_delta_stats(),
        dup_dropped: server.runtime().dup_dropped(),
    }
}

/// Everything a runtime-level feed is compared on.
#[derive(Debug, PartialEq)]
struct RuntimeOutcome {
    /// What each input event derived (or the error it raised).
    per_event: Vec<std::result::Result<Vec<String>, String>>,
    deltas: BTreeMap<&'static str, Vec<String>>,
    delta_stats: OpStats,
    dup_dropped: u64,
    /// (events in, events out).
    stats: (u64, u64),
}

/// How a runtime-level feed hands the runtime one batch.
type Push = fn(&StreamRuntime, &[Event], &mut BatchScratch, &mut Vec<Result<Vec<Event>>>);

fn runtime_outcome(events: &[Event], cut: &[usize], push: Push) -> RuntimeOutcome {
    let runtime = StreamRuntime::new(LATENESS_MS);
    runtime.enable_dedup(1 << 10);
    for stream in STREAMS {
        runtime.create_stream(stream, schema()).unwrap();
    }
    let deltas: DeltaLogs = Arc::default();
    for (name, stream, cql) in QUERIES {
        let q = evdb::cq::cql::parse_query(cql).unwrap();
        let pipeline = evdb::cq::cql::compile(&q, &schema(), AggMode::Incremental).unwrap();
        runtime
            .register_query_with(name, stream, pipeline, q.consistency)
            .unwrap();
        let log = Arc::clone(&deltas);
        runtime
            .subscribe(
                name,
                Arc::new(move |e: &Event| log.lock().unwrap().entry(name).or_default().push(row(e))),
            )
            .unwrap();
    }
    let (mut scratch, mut out) = (BatchScratch::new(), Vec::new());
    let mut per_event = Vec::with_capacity(events.len());
    for chunk in chunks(events, cut) {
        push(&runtime, chunk, &mut scratch, &mut out);
        assert_eq!(out.len(), chunk.len());
        per_event.extend(out.iter().map(derived));
    }
    let deltas = deltas.lock().unwrap().clone();
    RuntimeOutcome {
        per_event,
        deltas,
        delta_stats: runtime.cq_delta_stats(),
        dup_dropped: runtime.dup_dropped(),
        stats: runtime.stats(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The whole pipeline: `evaluate_events` + `deliver_batch` per batch.
    #[test]
    fn evaluate_events_is_chunking_invariant(ticks in arb_ticks(), cut in arb_cut()) {
        let events = events(&ticks);
        let reference = server_outcome(&events, &[1]);
        prop_assert_eq!(reference.totals.captured, events.len() as u64);
        prop_assert_eq!(&server_outcome(&events, &cut), &reference);
        prop_assert_eq!(&server_outcome(&events, &[events.len()]), &reference);
    }

    /// The runtime alone, live feed: the singleton reference goes through
    /// `push_event`, so the `N = 1` wrapper is held to the same answer.
    #[test]
    fn push_events_is_chunking_invariant(ticks in arb_ticks(), cut in arb_cut()) {
        let events = events(&ticks);
        let reference = runtime_outcome(&events, &[1], |rt, batch, _, out| {
            out.clear();
            out.extend(batch.iter().map(|e| rt.push_event(e)));
        });
        let live: Push = |rt, batch, scratch, out| rt.push_events(batch, scratch, out);
        prop_assert_eq!(&runtime_outcome(&events, &cut, live), &reference);
        prop_assert_eq!(&runtime_outcome(&events, &[events.len()], live), &reference);
    }

    /// The replay feed (historical watermarks, dedup window bypassed).
    #[test]
    fn replay_feed_is_chunking_invariant(ticks in arb_ticks(), cut in arb_cut()) {
        let events = events(&ticks);
        let replay: Push = |rt, batch, scratch, out| rt.push_events_replay(batch, scratch, out);
        let reference = runtime_outcome(&events, &[1], replay);
        prop_assert_eq!(reference.dup_dropped, 0);
        prop_assert_eq!(reference.stats.0, events.len() as u64);
        prop_assert_eq!(&runtime_outcome(&events, &cut, replay), &reference);
        prop_assert_eq!(&runtime_outcome(&events, &[events.len()], replay), &reference);
    }
}

/// The generator actually produces the cases the suite is about: late
/// ticks both admitted and dropped, duplicates, retractions, and errors
/// at both the head filter and the rule matcher.
#[test]
fn generated_sequences_cover_the_delicate_cases() {
    let ticks: Vec<GenTick> = (0..400u64)
        .map(|i| {
            let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 16;
            (
                (h % 2) as u8,
                (h >> 3) as i64 % 40,
                (h >> 9) as u8 % 4,
                (h >> 13) as i64 % 100,
                (h >> 21) as i64 % 12,
                (h >> 27) as u8 % 20,
                (h >> 33) as u8 % 20,
            )
        })
        .collect();
    let outcome = server_outcome(&events(&ticks), &[7, 1, 24]);
    assert!(outcome.errors > 0, "no evaluation error generated");
    assert!(outcome.dup_dropped > 0, "no duplicate generated");
    assert!(outcome.delta_stats.late_events > 0, "no late tick dropped");
    assert!(outcome.delta_stats.late_admitted > 0, "no late tick admitted");
    assert!(outcome.delta_stats.retractions > 0, "no retraction emitted");
    assert!(outcome.counters.2 > 0, "no deviation detected");
    assert!(outcome.counters.4 > 0, "no notification suppressed");
    for (name, _, _) in QUERIES {
        assert!(outcome.deltas.contains_key(name), "query '{name}' emitted nothing");
    }
}
