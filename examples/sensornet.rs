//! SensorNet use case (§2.2.e.iv): capture detections in the field and
//! deliver them to first responders over an unreliable network —
//! at-least-once, idempotent, audited.
//!
//! Topology: `field` node (sensor ingest) → lossy 50ms link →
//! `command` node (responder delivery via an external paging service
//! that itself fails 20% of calls).
//!
//! ```text
//! cargo run --example sensornet
//! ```

use std::sync::Arc;

use evdb_dist::{
    forwarder, ExternalService, FlakyService, LinkConfig, Node, QueueForwarder, ServiceDelivery,
    SimNetwork,
};
use evdb::queue::QueueConfig;
use evdb::types::{Clock, DataType, Record, Schema, SimClock, TimestampMs, Value};

fn main() -> evdb::types::Result<()> {
    let clock = SimClock::new(TimestampMs(0));
    let field = Node::new("field", clock.clone())?;
    let command = Node::new("command", clock.clone())?;

    let schema = Schema::of(&[
        ("sensor", DataType::Str),
        ("kind", DataType::Str),
        ("level", DataType::Float),
    ]);
    for node in [&field, &command] {
        node.queues().create_queue(
            "detections",
            Arc::clone(&schema),
            QueueConfig::default()
                .visibility_timeout(400)
                .max_attempts(50),
        )?;
    }

    // The command node pages responders through a flaky external service.
    let pager = FlakyService::new(0.2, 77);
    let mut delivery = ServiceDelivery::new(command.queues(), "detections", &pager)?;

    // A 20% lossy, jittery field link.
    let mut net = SimNetwork::new(
        LinkConfig {
            latency_ms: 50,
            jitter_ms: 25,
            loss: 0.2,
            ..Default::default()
        },
        42,
    );
    let mut fwd = QueueForwarder::new(&field, "detections", "command", "detections")?;

    // Field sensors report 1,000 detections.
    let n = 1_000;
    for i in 0..n {
        field.queues().enqueue(
            "detections",
            Record::from_iter([
                Value::from(format!("sensor{:02}", i % 40)),
                Value::from(if i % 97 == 0 { "chemical" } else { "motion" }),
                Value::Float((i % 100) as f64),
            ]),
            "field-ingest",
        )?;
    }

    // Drive the fabric until every detection is paged out.
    let mut steps = 0u64;
    while pager.delivered_ids().len() < n {
        steps += 1;
        assert!(steps < 100_000, "fabric failed to converge");
        let now = clock.now();
        fwd.pump(&field, &mut net, now)?;
        for pkt in net.poll(now) {
            if QueueForwarder::is_data(&pkt) {
                let ack = QueueForwarder::receive(&command, &pkt)?;
                net.send(ack, now);
            } else if fwd.owns_ack(&pkt) {
                fwd.on_ack(&field, &pkt)?;
            }
        }
        delivery.pump()?;
        clock.advance(25);
    }

    let (calls, failures) = pager.stats();
    println!("detections sent      : {n}");
    println!("paged to responders  : {}", pager.delivered_ids().len());
    println!("network packets      : sent={} dropped={}", net.sent, net.dropped);
    println!("data resends         : {}", fwd.sends - n as u64);
    println!("pager calls/failures : {calls}/{failures}");
    println!("receiver audit rows  : {}", forwarder::audit_count(&command));
    println!("simulated time       : {}ms over {steps} steps", clock.now().0);

    // The guarantees the tutorial asks of the distribution layer:
    assert_eq!(pager.delivered_ids().len(), n, "nothing lost");
    let mut ids = pager.delivered_ids();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), n, "nothing paged twice");
    assert!(net.dropped > 0, "the link really was lossy");
    assert_eq!(pager.name(), "flaky");
    Ok(())
}
