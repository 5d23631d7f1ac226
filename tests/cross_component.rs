//! Integration spanning every crate: a database trigger creates internal
//! messages (fast path) on a local staging area, the distribution layer
//! forwards them across a lossy simulated link to a remote node, and a
//! consumer on the remote node processes them — trigger → queue →
//! network → queue → consumer, with nothing lost and nothing duplicated.

use std::sync::Arc;

use evdb_dist::{LinkConfig, Node, QueueForwarder, SimNetwork};
use evdb::queue::QueueConfig;
use evdb::storage::{TriggerOps, TriggerTiming};
use evdb::types::{Clock, DataType, Record, Schema, SimClock, TimestampMs, Value};
use std::sync::Mutex;

#[test]
fn trigger_to_remote_consumer() {
    let clock = SimClock::new(TimestampMs(0));
    let local = Node::new("local", clock.clone()).unwrap();
    let remote = Node::new("remote", clock.clone()).unwrap();

    // Application table on the local node.
    local
        .db()
        .create_table(
            "orders",
            Schema::of(&[("oid", DataType::Int), ("amt", DataType::Float)]),
            "oid",
        )
        .unwrap();

    // Outbox queues on both nodes.
    let payload = Schema::of(&[("oid", DataType::Int), ("amt", DataType::Float)]);
    for node in [&local, &remote] {
        node.queues()
            .create_queue(
                "outbox",
                Arc::clone(&payload),
                QueueConfig::default().visibility_timeout(400).max_attempts(100),
            )
            .unwrap();
    }
    remote.queues().subscribe("outbox", "billing").unwrap();

    // The forwarder must subscribe *before* messages are enqueued:
    // consumer groups see messages from subscription time on (no
    // backfill, like any pub/sub registration).
    let mut fwd = QueueForwarder::new(&local, "outbox", "remote", "outbox").unwrap();

    // Trigger: every large order becomes an internal message. The
    // trigger runs inside the inserting transaction, so it cannot use
    // `enqueue_internal` on that same transaction from the outside —
    // instead it buffers and the app flushes them in its own txn (the
    // documented capture pattern); here we use the client path for
    // simplicity and the fast path is covered by E7.
    let pending: Arc<Mutex<Vec<Record>>> = Arc::new(Mutex::new(Vec::new()));
    let p2 = Arc::clone(&pending);
    local
        .db()
        .create_trigger(
            "big_orders",
            "orders",
            TriggerTiming::After,
            TriggerOps::INSERT,
            Some(evdb::expr::parse("amt > 100").unwrap()),
            Arc::new(move |ev| {
                p2.lock().unwrap().push(ev.row().clone());
                Ok(())
            }),
        )
        .unwrap();

    // Insert a mix of orders.
    let mut expected = Vec::new();
    for i in 0..50i64 {
        let amt = (i * 7 % 250) as f64;
        local
            .db()
            .insert(
                "orders",
                Record::from_iter([Value::Int(i), Value::Float(amt)]),
            )
            .unwrap();
        if amt > 100.0 {
            expected.push(i);
        }
    }
    // Flush trigger-captured messages into the outbox (internal path).
    {
        let msgs: Vec<Record> = std::mem::take(&mut *pending.lock().unwrap());
        let db = local.db();
        let mut tx = db.begin();
        let mut handles = Vec::new();
        for m in msgs {
            handles.push(
                local
                    .queues()
                    .enqueue_internal(&mut tx, "outbox", m, "trigger:big_orders")
                    .unwrap(),
            );
        }
        tx.commit().unwrap();
        for h in handles {
            local.queues().complete_internal(h);
        }
    }
    assert_eq!(local.queues().depth("outbox").unwrap(), expected.len());

    // Forward across a 25%-lossy link.
    let mut net = SimNetwork::new(
        LinkConfig {
            latency_ms: 15,
            loss: 0.25,
            ..Default::default()
        },
        7,
    );
    let mut received = Vec::new();
    for _ in 0..5_000 {
        let now = clock.now();
        fwd.pump(&local, &mut net, now).unwrap();
        for pkt in net.poll(now) {
            if QueueForwarder::is_data(&pkt) {
                let ack = QueueForwarder::receive(&remote, &pkt).unwrap();
                net.send(ack, now);
            } else if fwd.owns_ack(&pkt) {
                fwd.on_ack(&local, &pkt).unwrap();
            }
        }
        for d in remote.queues().dequeue("outbox", "billing", 16).unwrap() {
            received.push(d.message.payload.get(0).unwrap().as_int().unwrap());
            remote.queues().ack(&d).unwrap();
        }
        if received.len() >= expected.len() && local.queues().depth("outbox").unwrap() == 0 {
            break;
        }
        clock.advance(60);
    }

    received.sort_unstable();
    assert_eq!(received, expected, "exactly the large orders, exactly once");
    assert_eq!(local.queues().depth("outbox").unwrap(), 0);
    assert_eq!(remote.queues().depth("outbox").unwrap(), 0);
}
