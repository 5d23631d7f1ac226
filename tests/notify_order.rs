//! Notification order through evaluate → notify: one batch whose rule
//! hits and detector deviations the VIRT filter treats every way it can
//! — delivered, under the severity floor, duplicate-suppressed,
//! rate-limited, a retraction cancel passing both throttles — and one
//! event whose detector fails. Handlers and the delivered log must see
//! the survivors in event order (rules in id order, then detectors),
//! and the failing event must leave no notification behind, not even
//! its rule hits.

use std::sync::{Arc, Mutex};

use evdb::analytics::detector::UpdatePolicy;
use evdb::analytics::ThresholdModel;
use evdb::core::metrics::StageBatch;
use evdb::core::server::{EvalScratch, ServerConfig};
use evdb::core::{EventServer, Notification, VirtPolicy};
use evdb::types::{DataType, Event, EventId, Record, Schema, SimClock, TimestampMs, Value};

/// What a test compares of a notification.
type Seen = (String, f64, bool, i64);

fn seen(n: &Notification) -> Seen {
    (n.key.to_string(), n.severity, n.is_retraction, n.timestamp.0)
}

#[test]
fn survivors_keep_event_order_and_a_failing_event_leaves_no_notes() {
    let server = EventServer::in_memory(ServerConfig {
        clock: SimClock::new(TimestampMs(0)),
        virt: VirtPolicy {
            min_severity: 1.0,
            suppression_window_ms: 1_000,
            max_per_key_per_window: 2,
            rate_window_ms: 1_000,
        },
        ..Default::default()
    })
    .unwrap();
    let schema = Schema::of(&[("px", DataType::Float), ("qty", DataType::Int)]);
    server.create_stream("t", Arc::clone(&schema)).unwrap();
    // Severity 2: delivered once, then a duplicate until a cancel.
    server.add_alert_rule("hot", "t", "px > 10", 2.0, None).unwrap();
    // Under the floor, retraction or not.
    server.add_alert_rule("low", "t", "px > 0", 0.5, None).unwrap();
    // Scores px / 20 - 2 for px past 40, escalating, so only the rate
    // limit stops them. Its WHEN overflows, an error, on qty = 2.
    let when = evdb::expr::parse("qty * 4611686018427387904 >= 0").unwrap();
    server
        .add_detector_when("band", "t", "px", None, Some(&when), UpdatePolicy::Always, || {
            Box::new(ThresholdModel::new(0.0, 40.0))
        })
        .unwrap();
    let handled: Arc<Mutex<Vec<Seen>>> = Arc::default();
    let sink = Arc::clone(&handled);
    server.on_notification(Arc::new(move |n| sink.lock().unwrap().push(seen(n))));

    // (px, qty, retraction); the timestamp is the event's index.
    let ticks = [
        (60.0, 1, false),  // hot; band 1.0
        (80.0, 1, false),  // hot a duplicate; band 2.0, the window's second
        (100.0, 2, true),  // the detector fails: no hot cancel either
        (100.0, 1, false), // hot a duplicate; band 3.0 rate-limited
        (60.0, 1, true),   // hot and band cancels pass; low's does not
        (120.0, 1, false), // hot a duplicate; band 4.0 rate-limited
    ];
    let mut events: Vec<Event> = ticks
        .iter()
        .enumerate()
        .map(|(i, &(px, qty, retraction))| {
            let payload = Record::from_iter([Value::Float(px), Value::Int(qty)]);
            let mut e = Event::new(EventId(i as u64), "t", TimestampMs(i as i64), payload, Arc::clone(&schema));
            e.retraction = retraction;
            e
        })
        .collect();
    let (mut stage, mut scratch, mut notes) = (StageBatch::default(), EvalScratch::default(), Vec::new());
    let (_, errors) = server.evaluate_events(&mut events, server.now(), &mut stage, &mut scratch, &mut notes);
    assert_eq!(errors, 1);
    let evaluated: Vec<(String, i64)> = notes.iter().map(|n| (n.key.to_string(), n.timestamp.0)).collect();
    let want = |pairs: &[(&str, i64)]| -> Vec<(String, i64)> {
        pairs.iter().map(|&(k, t)| (k.to_string(), t)).collect()
    };
    // Per event: rules in id order, then the detector; none from event 2.
    assert_eq!(
        evaluated,
        want(&[
            ("hot", 0), ("low", 0), ("band", 0),
            ("hot", 1), ("low", 1), ("band", 1),
            ("hot", 3), ("low", 3), ("band", 3),
            ("hot", 4), ("low", 4), ("band", 4),
            ("hot", 5), ("low", 5), ("band", 5),
        ])
    );

    assert_eq!(server.deliver_batch(notes), 5);
    let survivors: Vec<Seen> = vec![
        ("hot".into(), 2.0, false, 0),
        ("band".into(), 1.0, false, 0),
        ("band".into(), 2.0, false, 1),
        ("hot".into(), 2.0, true, 4),
        ("band".into(), 1.0, true, 4),
    ];
    assert_eq!(*handled.lock().unwrap(), survivors);
    let logged: Vec<Seen> = server.notifications().drain_delivered().iter().map(seen).collect();
    assert_eq!(logged, survivors);
    let snapshot = server.metrics().snapshot();
    assert_eq!(snapshot.notifications, 5);
    assert_eq!(snapshot.suppressed, 10);
}
