//! A failing event costs only the query it fails at (DESIGN.md D15).
//!
//! Query `guard`, registered first, has a head filter that overflows on
//! every tick with `qty ≥ 4`; aggregate `tally` is registered after it.
//! The overflowing ticks are errors — `out[i]` holds the error, and the
//! engine withholds them from alert rules — yet `tally` still counts
//! every tick: its answer does not depend on which other queries are
//! registered, or in which order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use evdb::core::server::ServerConfig;
use evdb::core::EventServer;
use evdb::cq::aggregate::AggMode;
use evdb::cq::{compile_query, StreamRuntime};
use evdb::expr::BatchScratch;
use evdb::types::{DataType, Event, EventId, Record, Schema, SimClock, TimestampMs, Value};

/// Overflows (checked arithmetic) for `qty ≥ 4`: 4 · 2⁶¹ = 2⁶³.
const GUARD: &str = "SELECT sym, qty FROM ticks WHERE qty * 2305843009213693952 > 0";
const TALLY: &str = "SELECT count() AS n FROM ticks [RANGE 1 s]";
const TICKS: i64 = 8;

fn schema() -> Arc<Schema> {
    Schema::of(&[("sym", DataType::Str), ("qty", DataType::Int)])
}

/// Tick `i` (1-based): `qty = i`, at `100 · i` ms.
fn tick(i: i64) -> Record {
    Record::from_iter([Value::from("IBM"), Value::Int(i)])
}

#[test]
fn an_error_at_an_earlier_query_does_not_reach_a_later_one() {
    let rt = StreamRuntime::new(0);
    rt.create_stream("ticks", schema()).unwrap();
    for (name, cql) in [("guard", GUARD), ("tally", TALLY)] {
        let pipeline = compile_query(cql, &schema(), AggMode::Incremental).unwrap();
        rt.register_query(name, "ticks", pipeline).unwrap();
    }
    let counts = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&counts);
    rt.subscribe(
        "tally",
        Arc::new(move |e: &Event| sink.lock().unwrap().push(e.payload.get(0).cloned())),
    )
    .unwrap();

    let events: Vec<Event> = (1..=TICKS)
        .map(|i| Event::new(EventId(i as u64), "ticks", TimestampMs(100 * i), tick(i), schema()))
        .collect();
    let mut out = Vec::new();
    rt.push_events(&events, &mut BatchScratch::new(), &mut out);
    for (i, result) in (1..).zip(&out) {
        assert_eq!(result.is_err(), i >= 4, "tick {i}: {result:?}");
    }

    rt.flush("ticks", TimestampMs(10_000)).unwrap();
    // Every tick landed in [0, 1000), the five the guard failed on too.
    assert_eq!(*counts.lock().unwrap(), vec![Some(Value::Int(TICKS))]);
}

#[test]
fn an_erroring_event_still_notifies_no_rule() {
    let server = EventServer::in_memory(ServerConfig {
        clock: SimClock::new(TimestampMs(0)),
        ..Default::default()
    })
    .unwrap();
    server.create_stream("ticks", schema()).unwrap();
    server
        .add_alert_rule("any", "ticks", "qty >= 1", 1.0, None)
        .unwrap();
    server.register_cql("guard", GUARD).unwrap();
    server.register_cql("tally", TALLY).unwrap();
    let tally = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&tally);
    server
        .on_query_updates("tally", move |row, _| {
            if let Some(Value::Int(n)) = row.get(0) {
                seen.store(*n as u64, Ordering::Relaxed);
            }
        })
        .unwrap();

    for i in 1..=TICKS {
        server
            .ingest_async("ticks", TimestampMs(100 * i), tick(i))
            .unwrap();
    }
    // The pump reports the first failing event's error after evaluating
    // and notifying the rest of the batch.
    assert!(server.pump().is_err());
    let delivered = server.metrics().snapshot().notifications;
    assert_eq!(delivered, 3, "only the ticks no query failed on notify");
    server.flush_stream("ticks", TimestampMs(10_000)).unwrap();
    assert_eq!(tally.load(Ordering::Relaxed), TICKS as u64);
}
