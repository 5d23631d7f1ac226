//! Property tests for the background pump over arbitrary traces. The
//! pump thread cuts a trace into cycles wherever its wake-ups happen to
//! fall while the producer is still staging (or as the test forces it:
//! all at once, or one event per cycle); whatever the cut, every
//! staged event is evaluated exactly once, each key's notifications
//! arrive in that key's arrival order, and two pumps over one trace
//! deliver the identical sequence. One cycle runs at a time under the
//! cycle gate, so these hold by construction; the tests keep them so.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use evdb::core::server::ServerConfig;
use evdb::core::{spawn_pump, EventServer};
use evdb::types::{DataType, Record, Schema, SimClock, TimestampMs, Value};

const STREAMS: u32 = 6;

/// One staged event: (stream index, key, value).
type Tick = (u32, u32, i64);

/// How a trace meets the pump, i.e. how its cycles cut it.
#[derive(Clone, Copy)]
enum Feed {
    /// Staged whole before the pump starts: one cycle takes it all.
    Upfront,
    /// Staged while the pump runs: cut wherever its wake-ups fall.
    Racing,
    /// One event at a time, each evaluated before the next is staged.
    Stepwise,
}

/// Six streams, each with one alert rule that fires on every event and
/// is keyed by `k`: each event yields exactly one notification, keyed
/// `all<stream>:<k>` and stamped with the event's timestamp (its index
/// in the trace). The clock is pinned and the VIRT filter is off by
/// default, so delivery is a function of arrival order alone.
fn keyed_server() -> Arc<EventServer> {
    let server = EventServer::in_memory(ServerConfig {
        clock: SimClock::new(TimestampMs(0)),
        ..Default::default()
    })
    .unwrap();
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    for s in 0..STREAMS {
        let stream = format!("s{s}");
        server.create_stream(&stream, Arc::clone(&schema)).unwrap();
        server
            .add_alert_rule(&format!("all{s}"), &stream, "TRUE", 1.0, Some("k"))
            .unwrap();
    }
    Arc::new(server)
}

/// Feed `trace` to a fresh server's pump, wait until every event is
/// evaluated, stop the pump and return the delivered notifications as
/// (key, event index), in delivery order. Checks the pump's exact
/// accounting on the way.
fn pumped(trace: &[Tick], feed: Feed) -> Result<Vec<(String, i64)>, TestCaseError> {
    let server = keyed_server();
    let processed = || server.metrics().snapshot().events_processed;
    let wait_for = |n: u64| -> Result<(), TestCaseError> {
        let t0 = Instant::now();
        while processed() < n {
            prop_assert!(t0.elapsed() < Duration::from_secs(30), "pump stalled");
            std::thread::yield_now();
        }
        Ok(())
    };
    let mut handle = None;
    let mut start = || handle = Some(spawn_pump(&server, Duration::from_millis(1)));
    if !matches!(feed, Feed::Upfront) {
        start();
    }
    for (i, (stream, k, v)) in trace.iter().enumerate() {
        server
            .ingest_async(
                &format!("s{stream}"),
                TimestampMs(i as i64),
                Record::from_iter([Value::Int(i64::from(*k)), Value::Int(*v)]),
            )
            .unwrap();
        if matches!(feed, Feed::Stepwise) {
            wait_for(i as u64 + 1)?;
        }
    }
    if matches!(feed, Feed::Upfront) {
        start();
    }
    let n = trace.len() as u64;
    wait_for(n)?;
    let handle = handle.expect("the pump was started");
    prop_assert_eq!(handle.errors(), 0);
    handle.stop();

    let snap = server.metrics().snapshot();
    prop_assert_eq!(snap.events_captured, n);
    prop_assert_eq!(snap.events_processed, n);
    prop_assert_eq!(snap.notifications, n);
    prop_assert_eq!(server.admission().depth(), 0);
    Ok(server
        .notifications()
        .drain_delivered()
        .into_iter()
        .map(|note| (note.key.to_string(), note.timestamp.0))
        .collect())
}

fn ticks(max: usize) -> impl Strategy<Value = Vec<Tick>> {
    proptest::collection::vec((0..STREAMS, 0..40u32, -1000..1000i64), 1..max)
}

proptest! {
    // Each case spins a real pump thread; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Two pumps over one trace — one taking it in a single cycle, one
    /// an event per cycle — deliver the identical notification sequence:
    /// one per event, each for an event of the trace.
    #[test]
    fn shard_for_is_deterministic_and_in_range(trace in ticks(300)) {
        let first = pumped(&trace, Feed::Upfront)?;
        let second = pumped(&trace, Feed::Stepwise)?;
        prop_assert_eq!(first.len(), trace.len());
        prop_assert!(first.iter().all(|(_, i)| (0..trace.len() as i64).contains(i)));
        prop_assert_eq!(first, second);
    }

    /// Every key's notifications arrive in the arrival order of that
    /// key's events.
    #[test]
    fn same_key_same_shard_for_every_shard_count(trace in ticks(300)) {
        let delivered = pumped(&trace, Feed::Racing)?;
        let mut want: HashMap<String, Vec<i64>> = HashMap::new();
        for (i, (stream, k, _)) in trace.iter().enumerate() {
            want.entry(format!("all{stream}:{k}")).or_default().push(i as i64);
        }
        let mut got: HashMap<String, Vec<i64>> = HashMap::new();
        for (key, i) in delivered {
            got.entry(key).or_default().push(i);
        }
        prop_assert_eq!(got, want);
    }

    /// Arbitrary traces through the pump: every staged event is
    /// captured and evaluated exactly once, with no errors and nothing
    /// left staged.
    #[test]
    fn every_event_processed_exactly_once(trace in ticks(400)) {
        let delivered = pumped(&trace, Feed::Racing)?;
        let mut seen = vec![0u32; trace.len()];
        for (_, i) in delivered {
            seen[i as usize] += 1;
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "not exactly once: {seen:?}");
    }
}
