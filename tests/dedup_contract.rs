//! The replay-dedup window's contract (DESIGN.md D12): it exists for
//! at-least-once redelivery, where a re-mined journal prefix repeats its
//! LSN ids. An id the engine minted itself (`ingest_async`, `ingest`,
//! `stage`, trigger and query-poll captures) can never recur, so such
//! events neither consult nor fill the window — and so can never be
//! mistaken for a duplicate of a mined LSN.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use evdb::core::metrics::StageBatch;
use evdb::core::server::{EvalScratch, ServerConfig};
use evdb::core::{CaptureMechanism, EventServer};
use evdb::cq::delta::change_to_event;
use evdb::storage::JournalMiner;
use evdb::types::{DataType, Event, IdGenerator, Record, Schema, SimClock, TimestampMs, Value};

const ROWS: i64 = 20;

/// A server journal-capturing table `t` into `t_changes`, with a
/// `SELECT row_key FROM t_changes` subscriber counting its rows.
fn journaled(config: ServerConfig) -> (EventServer, Arc<AtomicU64>) {
    let server = EventServer::in_memory(config).unwrap();
    server
        .db()
        .create_table(
            "t",
            Schema::of(&[("id", DataType::Int), ("v", DataType::Float)]),
            "id",
        )
        .unwrap();
    let stream = server
        .capture_table("t", CaptureMechanism::Journal)
        .unwrap();
    assert_eq!(stream, "t_changes");
    server
        .register_cql("keys", "SELECT row_key FROM t_changes")
        .unwrap();
    let rows = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&rows);
    server
        .on_query(
            "keys",
            Arc::new(move |_| {
                seen.fetch_add(1, Ordering::Relaxed);
            }),
        )
        .unwrap();
    (server, rows)
}

fn config() -> ServerConfig {
    ServerConfig {
        clock: SimClock::new(TimestampMs(0)),
        ..Default::default()
    }
}

/// Insert `ROWS` rows into `t` and mine them with one pump.
fn mine_inserts(server: &EventServer) {
    for i in 0..ROWS {
        server
            .db()
            .insert(
                "t",
                Record::from_iter([Value::Int(i), Value::Float(i as f64)]),
            )
            .unwrap();
    }
    assert_eq!(server.pump().unwrap().captured, ROWS as u64);
}

/// Journal-mined events carry LSN ids; `ingest_async` events into the
/// same stream carry ids the capture stage minted, from its own counter.
/// The two ranges overlap, and a minted id equal to a mined LSN used to
/// be dropped as its "duplicate" (the subscriber saw 26 rows, not 40).
#[test]
fn minted_ids_never_collide_with_mined_lsns() {
    let (server, rows) = journaled(config());
    mine_inserts(&server);
    assert_eq!(rows.load(Ordering::Relaxed), ROWS as u64);

    for i in 0..ROWS {
        let payload = Record::from_iter([
            Value::from("insert"),
            Value::Int(1_000 + i),
            Value::Int(1_000 + i),
            Value::Float(0.5),
        ]);
        server
            .ingest_async("t_changes", TimestampMs(i), payload)
            .unwrap();
    }
    assert_eq!(server.pump().unwrap().captured, ROWS as u64);

    assert_eq!(rows.load(Ordering::Relaxed), 2 * ROWS as u64);
    assert_eq!(server.runtime().dup_dropped(), 0);
}

/// Minted traffic leaves the window alone: an ingest-only server with a
/// 64-id window takes 1 000 events without one eviction or drop.
#[test]
fn minted_events_neither_fill_nor_consult_the_window() {
    let server = EventServer::in_memory(ServerConfig {
        dedup_capacity: 64,
        ..config()
    })
    .unwrap();
    let schema = Schema::of(&[("sym", DataType::Str), ("px", DataType::Float)]);
    server.create_stream("ticks", schema).unwrap();
    for i in 0..1_000i64 {
        let payload = Record::from_iter([Value::from("IBM"), Value::Float(i as f64)]);
        server
            .ingest_async("ticks", TimestampMs(i), payload)
            .unwrap();
    }
    assert_eq!(server.pump().unwrap().captured, 1_000);
    assert_eq!(server.runtime().dedup_evicted(), 0);
    assert_eq!(server.runtime().dup_dropped(), 0);
}

/// What the window is for: after the capture mined a journal prefix, the
/// same prefix re-mined (as after recovery) and handed to the evaluate
/// path is dropped and counted, not double-counted into the query.
#[test]
fn a_re_mined_journal_prefix_is_still_dropped() {
    let (server, rows) = journaled(config());
    mine_inserts(&server);

    let schema = server.runtime().stream_schema("t_changes").unwrap();
    let mut again = JournalMiner::from_start();
    let ids = IdGenerator::default();
    let mut events: Vec<Event> = again
        .poll(server.db())
        .unwrap()
        .into_iter()
        .filter(|c| c.table.as_ref() == "t")
        .map(|c| {
            let e = change_to_event(&c, &schema, &ids);
            Event::new(e.id, "t_changes", e.timestamp, e.payload, e.schema)
        })
        .collect();
    assert_eq!(events.len(), ROWS as usize);

    let (mut stage, mut scratch, mut notes) =
        (StageBatch::default(), EvalScratch::default(), Vec::new());
    let (_, errors) = server.evaluate_events(
        &mut events,
        server.now(),
        &mut stage,
        &mut scratch,
        &mut notes,
    );
    assert_eq!(errors, 0);
    assert_eq!(server.runtime().dup_dropped(), ROWS as u64);
    assert_eq!(rows.load(Ordering::Relaxed), ROWS as u64);
}
