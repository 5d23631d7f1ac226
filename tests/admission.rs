//! Integration tests for the bounded staged-ingest path (DESIGN.md D10):
//! cross-stream arrival-order drains, dropped-capture accounting, and the
//! three overload policies observed end to end through `EventServer`.

use std::sync::Arc;
use std::time::Duration;

use evdb::core::server::ServerConfig;
use evdb::core::{CaptureMechanism, EventServer, OverloadPolicy};
use evdb::types::{DataType, Record, Schema, SimClock, TimestampMs, Value};

fn server_with(capacity: usize, overload: OverloadPolicy) -> EventServer {
    EventServer::in_memory(ServerConfig {
        clock: SimClock::new(TimestampMs(0)),
        ingest_capacity: capacity,
        overload,
        ..Default::default()
    })
    .unwrap()
}

fn int_table(server: &EventServer, name: &str) {
    server
        .db()
        .create_table(
            name,
            Schema::of(&[("id", DataType::Int), ("v", DataType::Float)]),
            "id",
        )
        .unwrap();
}

fn row(id: i64) -> Record {
    Record::from_iter([Value::Int(id), Value::Float(id as f64)])
}

/// Regression: the drain used to group trigger events by stream through
/// a `HashMap`, making cross-stream evaluation order nondeterministic
/// and contradicting the documented "in capture order". Two interleaved
/// producers must come out exactly as they arrived.
#[test]
fn drain_preserves_cross_stream_arrival_order() {
    let server = server_with(1024, OverloadPolicy::Block);
    int_table(&server, "a");
    int_table(&server, "b");
    let sa = server.capture_table("a", CaptureMechanism::Trigger).unwrap();
    let sb = server.capture_table("b", CaptureMechanism::Trigger).unwrap();

    server.db().insert("a", row(1)).unwrap();
    server.db().insert("b", row(1)).unwrap();
    server.db().insert("a", row(2)).unwrap();
    server.db().insert("b", row(2)).unwrap();
    server.db().insert("a", row(3)).unwrap();

    let sources: Vec<String> = server
        .drain(false).events
        .iter()
        .map(|e| e.source.to_string())
        .collect();
    assert_eq!(
        sources,
        vec![sa.clone(), sb.clone(), sa.clone(), sb, sa],
        "drained events must interleave exactly as the writers did"
    );
}

/// Regression: staged trigger events whose capture was deregistered
/// between buffering and drain were silently discarded. They are still
/// dropped (their schema is gone) but now counted and visible.
#[test]
fn deregistered_capture_drops_are_counted() {
    let server = server_with(1024, OverloadPolicy::Block);
    int_table(&server, "t");
    server.capture_table("t", CaptureMechanism::Trigger).unwrap();

    server.db().insert("t", row(1)).unwrap(); // staged
    server.remove_capture("t_changes").unwrap();

    let stats = server.pump().unwrap();
    assert_eq!(stats.captured, 0);
    assert_eq!(server.admission().dropped_capture_total(), 1);
    let text = server.registry().render();
    assert!(
        text.contains("evdb_ingest_dropped_capture_total 1"),
        "dropped captures must be visible in the exposition:\n{text}"
    );

    // The trigger is gone: later writes stage nothing and the counter
    // does not move again.
    server.db().insert("t", row(2)).unwrap();
    assert_eq!(server.pump().unwrap().captured, 0);
    assert_eq!(server.admission().dropped_capture_total(), 1);

    assert!(server.remove_capture("t_changes").is_err());
}

/// `Reject` aborts the writer at capacity: the insert rolls back (table
/// and stream stay consistent) and the offer is counted as rejected.
#[test]
fn reject_policy_aborts_writes_at_capacity() {
    let server = server_with(2, OverloadPolicy::Reject);
    int_table(&server, "t");
    server.capture_table("t", CaptureMechanism::Trigger).unwrap();

    server.db().insert("t", row(1)).unwrap();
    server.db().insert("t", row(2)).unwrap();
    let err = server.db().insert("t", row(3)).unwrap_err();
    assert_eq!(err.kind(), "overloaded");
    assert_eq!(
        server.db().table("t").unwrap().len(),
        2,
        "a rejected capture must roll the producer's insert back"
    );

    let stats = server.pump().unwrap();
    assert_eq!(stats.captured, 2);
    let ac = server.admission();
    assert_eq!(ac.rejected_total(), 1);
    assert_eq!(ac.shed_total(), 0);
    assert!(ac.peak_depth() <= 2);
    // offered == evaluated + shed + rejected
    assert_eq!(3, stats.captured + ac.shed_total() + ac.rejected_total());

    // The buffer drained, so the writer's retry goes through.
    server.db().insert("t", row(3)).unwrap();
    assert_eq!(server.pump().unwrap().captured, 1);
}

/// `ShedLowest` keeps the highest-priority staged events: a full buffer
/// of low-priority events is displaced by a higher-priority stream, and
/// a low-priority newcomer into a high-priority buffer sheds itself.
#[test]
fn shed_lowest_prefers_high_priority_streams() {
    let server = server_with(2, OverloadPolicy::ShedLowest);
    let schema = Schema::of(&[("k", DataType::Int)]);
    server.create_stream("lo", Arc::clone(&schema)).unwrap();
    server.create_stream("hi", Arc::clone(&schema)).unwrap();
    server.set_ingest_priority("hi", 10).unwrap();
    assert!(server.set_ingest_priority("ghost", 1).is_err());

    let offer = |stream: &str, k: i64| {
        server
            .ingest_async(stream, TimestampMs(k), Record::from_iter([Value::Int(k)]))
            .unwrap();
    };
    offer("lo", 1);
    offer("lo", 2);
    offer("hi", 3); // displaces lo/1
    offer("hi", 4); // displaces lo/2
    offer("lo", 5); // buffer full of higher priority: newcomer shed

    let drained: Vec<String> = server
        .drain(false).events
        .iter()
        .map(|e| e.source.to_string())
        .collect();
    assert_eq!(drained, vec!["hi".to_string(), "hi".to_string()]);
    let ac = server.admission();
    assert_eq!(ac.shed_total(), 3);
    assert_eq!(ac.rejected_total(), 0);
    assert!(ac.peak_depth() <= 2);
    // offered == drained + shed + rejected
    assert_eq!(5, drained.len() as u64 + ac.shed_total() + ac.rejected_total());
    let text = server.registry().render();
    assert!(text.contains("evdb_ingest_shed_total 3"), "{text}");
}

/// `Block` backpressures the producer instead of dropping anything:
/// every offered event is eventually evaluated, nothing is shed or
/// rejected, and the staged depth never exceeds the capacity.
#[test]
fn block_policy_backpressures_producer() {
    let server = Arc::new(server_with(1, OverloadPolicy::Block));
    let schema = Schema::of(&[("k", DataType::Int)]);
    server.create_stream("s", schema).unwrap();

    let producer = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            for k in 0..50 {
                server
                    .ingest_async("s", TimestampMs(k), Record::from_iter([Value::Int(k)]))
                    .unwrap();
            }
        })
    };
    let mut evaluated = 0u64;
    for _ in 0..20_000 {
        evaluated += server.pump().unwrap().captured;
        if evaluated == 50 {
            break;
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    producer.join().unwrap();
    evaluated += server.pump().unwrap().captured;
    assert_eq!(evaluated, 50);
    let ac = server.admission();
    assert_eq!(ac.shed_total(), 0, "Block must never shed");
    assert_eq!(ac.rejected_total(), 0, "Block must never reject");
    assert!(
        ac.peak_depth() <= 1,
        "staged depth {} exceeded capacity 1",
        ac.peak_depth()
    );
}
