//! Property tests for admission control (DESIGN.md D10): over random
//! producer/pump interleavings every offered event is accounted for —
//! `offered == drained + shed + rejected` — no event is both shed and
//! drained for evaluation, and `Block` never sheds or rejects anything.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use evdb::core::server::ServerConfig;
use evdb::core::{EventServer, OverloadPolicy};
use evdb::types::{DataType, Record, Schema, SimClock, TimestampMs, Value};

/// A server with three free-standing streams at shed priorities 0/1/2.
fn overload_server(capacity: usize, overload: OverloadPolicy) -> EventServer {
    let server = EventServer::in_memory(ServerConfig {
        clock: SimClock::new(TimestampMs(0)),
        ingest_capacity: capacity,
        overload,
        ..Default::default()
    })
    .unwrap();
    let schema = Schema::of(&[("k", DataType::Int)]);
    for p in 0..3 {
        let name = format!("p{p}");
        server.create_stream(&name, Arc::clone(&schema)).unwrap();
        server.set_ingest_priority(&name, p).unwrap();
    }
    server
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single-threaded random interleavings of offers (on streams of
    /// differing shed priority) and pump drains, under `Reject` and
    /// `ShedLowest`: the accounting balances exactly, drains never
    /// duplicate or invent events, and the staged depth respects the
    /// capacity bound.
    #[test]
    fn interleavings_balance_exactly(
        use_shed in 0..2u8,
        capacity in 1..6usize,
        // (action, stream): action 0..=2 offers on stream p{action},
        // action 3 drains.
        ops in proptest::collection::vec(0..4u8, 1..200),
    ) {
        let policy = if use_shed == 1 {
            OverloadPolicy::ShedLowest
        } else {
            OverloadPolicy::Reject
        };
        let server = overload_server(capacity, policy);

        let mut offered: u64 = 0;
        let mut rejected_seen: u64 = 0;
        let mut drained_ids: Vec<i64> = Vec::new();
        for (seq, op) in ops.iter().enumerate() {
            if *op < 3 {
                offered += 1;
                let r = server.ingest_async(
                    &format!("p{op}"),
                    TimestampMs(seq as i64),
                    Record::from_iter([Value::Int(seq as i64)]),
                );
                match r {
                    Ok(()) => {}
                    Err(e) => {
                        prop_assert_eq!(e.kind(), "overloaded");
                        rejected_seen += 1;
                    }
                }
                prop_assert!(server.admission().depth() <= capacity);
            } else {
                for ev in server.drain(false).events {
                    drained_ids.push(ev.payload.get(0).unwrap().as_int().unwrap());
                }
            }
        }
        for ev in server.drain(false).events {
            drained_ids.push(ev.payload.get(0).unwrap().as_int().unwrap());
        }

        let ac = server.admission();
        // Rejections only under Reject, sheds only under ShedLowest.
        prop_assert_eq!(ac.rejected_total(), rejected_seen);
        match policy {
            OverloadPolicy::Reject => prop_assert_eq!(ac.shed_total(), 0),
            OverloadPolicy::ShedLowest => prop_assert_eq!(ac.rejected_total(), 0),
            OverloadPolicy::Block => unreachable!(),
        }
        // offered == drained + shed + rejected, exactly.
        prop_assert_eq!(
            offered,
            drained_ids.len() as u64 + ac.shed_total() + ac.rejected_total()
        );
        // Each offered event is unique, so a drain sequence without
        // duplicates means no event was both shed and evaluated.
        let mut seen = std::collections::HashSet::new();
        for id in &drained_ids {
            prop_assert!(seen.insert(*id), "event {} drained twice", id);
        }
        prop_assert!(ac.peak_depth() as usize <= capacity);
    }
}

proptest! {
    // Each case spins a real producer thread; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `Block` under a concurrent producer: every offered event is
    /// drained exactly once in arrival order, nothing is shed or
    /// rejected, and the staged depth never exceeds the capacity.
    #[test]
    fn block_never_sheds(
        capacity in 1..4usize,
        n in 1..80i64,
    ) {
        let server = Arc::new(overload_server(capacity, OverloadPolicy::Block));
        let producer = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                for k in 0..n {
                    server
                        .ingest_async(
                            &format!("p{}", k % 3),
                            TimestampMs(k),
                            Record::from_iter([Value::Int(k)]),
                        )
                        .unwrap();
                }
            })
        };
        let mut drained_ids: Vec<i64> = Vec::new();
        let t0 = Instant::now();
        while (drained_ids.len() as i64) < n {
            prop_assert!(
                t0.elapsed() < Duration::from_secs(30),
                "blocked producer never unblocked"
            );
            for ev in server.drain(false).events {
                drained_ids.push(ev.payload.get(0).unwrap().as_int().unwrap());
            }
        }
        producer.join().unwrap();

        // One producer: arrival order is offer order, exactly once each.
        let expected: Vec<i64> = (0..n).collect();
        prop_assert_eq!(drained_ids, expected);
        let ac = server.admission();
        prop_assert_eq!(ac.shed_total(), 0, "Block must never shed");
        prop_assert_eq!(ac.rejected_total(), 0, "Block must never reject");
        prop_assert!(ac.peak_depth() as usize <= capacity);
    }
}
