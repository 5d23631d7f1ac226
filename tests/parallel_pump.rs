//! Sequential-equivalence and stress harness for the background pump
//! (`spawn_pump`): the same trace, pushed through one by-hand `pump()`
//! and through the pump thread — which cuts it into cycles wherever its
//! wake-ups happen to fall while producers are still staging — must
//! produce the identical notification multiset, the identical per-key
//! delivery order, and identical engine counters.
//!
//! The clock is a pinned `SimClock`, which makes the VIRT filter (whose
//! suppression and rate-limit state is entirely per key) a pure
//! function of each key's notification sequence — so any divergence
//! between the two is a real ordering or loss bug, not timing.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use evdb::analytics::detector::UpdatePolicy;
use evdb::analytics::ThresholdModel;
use evdb::core::server::ServerConfig;
use evdb::core::{
    spawn_pump, CaptureMechanism, EventServer, HistoryConfig, Notification, VirtPolicy,
};
use evdb::storage::{CompactionPolicy, SegmentStoreOptions};
use evdb::types::{DataType, Record, Schema, SimClock, TimestampMs, Value};

const SYMS: [&str; 8] = ["AAA", "BBB", "CCC", "DDD", "EEE", "FFF", "GGG", "HHH"];

/// A server with the full evaluation surface on four streams: keyed
/// alert rules everywhere, a windowed CQ on `s1`, a keyed threshold
/// detector on `s0`, and a VIRT policy with suppression + rate limiting
/// so delivery decisions depend on per-key history.
fn build_server(clock: Arc<SimClock>) -> Arc<EventServer> {
    let server = EventServer::in_memory(ServerConfig {
        clock,
        virt: VirtPolicy {
            suppression_window_ms: 5_000,
            max_per_key_per_window: 3,
            rate_window_ms: 10_000,
            ..Default::default()
        },
        ..Default::default()
    })
    .unwrap();
    let schema = Schema::of(&[("sym", DataType::Str), ("px", DataType::Float)]);
    for i in 0..4 {
        let stream = format!("s{i}");
        server.create_stream(&stream, Arc::clone(&schema)).unwrap();
        server
            .add_alert_rule(&format!("hot{i}"), &stream, "px > 60", 1.0, Some("sym"))
            .unwrap();
        server
            .add_alert_rule(&format!("crit{i}"), &stream, "px > 85", 2.0, None)
            .unwrap();
    }
    server
        .register_cql(
            "avg1",
            "SELECT sym, avg(px) AS apx FROM s1 [RANGE 1 s] GROUP BY sym",
        )
        .unwrap();
    server
        .add_detector(
            "band",
            "s0",
            "px",
            Some("sym"),
            UpdatePolicy::Always,
            || Box::new(ThresholdModel::new(5.0, 80.0)),
        )
        .unwrap();
    Arc::new(server)
}

fn trace(n: usize, seed: u64) -> Vec<(String, TimestampMs, Record)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let stream = format!("s{}", rng.gen_range(0..4));
            let sym = SYMS[rng.gen_range(0..SYMS.len())];
            let px = rng.gen_range(0.0..100.0);
            (
                stream,
                TimestampMs(i as i64),
                Record::from_iter([Value::from(sym), Value::Float(px)]),
            )
        })
        .collect()
}

fn stage(server: &EventServer, trace: &[(String, TimestampMs, Record)]) {
    for (stream, ts, payload) in trace {
        server.ingest_async(stream, *ts, payload.clone()).unwrap();
    }
}

fn wait_processed(server: &EventServer, n: u64, budget: Duration) {
    let t0 = Instant::now();
    while server.metrics().snapshot().events_processed < n {
        assert!(
            t0.elapsed() < budget,
            "pump stalled: {} of {n} events processed",
            server.metrics().snapshot().events_processed
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Canonical form for multiset comparison.
fn canon(notes: &[Notification]) -> Vec<(String, u64, String, String, i64)> {
    let mut v: Vec<_> = notes
        .iter()
        .map(|n| {
            (
                n.key.to_string(),
                n.severity.to_bits(),
                n.title.to_string(),
                n.body.clone(),
                n.timestamp.0,
            )
        })
        .collect();
    v.sort();
    v
}

/// Delivery order per key (the order-sensitive half of equivalence).
fn per_key_order(notes: &[Notification]) -> HashMap<String, Vec<(String, i64)>> {
    let mut m: HashMap<String, Vec<(String, i64)>> = HashMap::new();
    for n in notes {
        m.entry(n.key.to_string())
            .or_default()
            .push((n.title.to_string(), n.timestamp.0));
    }
    m
}

#[test]
fn sharded_pump_is_sequentially_equivalent() {
    const N: usize = 2_000;
    let events = trace(N, 4207);

    // Reference: the classic single-threaded pump, one drain.
    let seq = build_server(SimClock::new(TimestampMs(0)));
    stage(&seq, &events);
    let stats = seq.pump().unwrap();
    assert_eq!(stats.captured, N as u64);
    let seq_delivered = seq.notifications().drain_delivered();
    let seq_snap = seq.metrics().snapshot();

    // Four runs, each cut into cycles differently: the pump is already
    // running while the trace is staged.
    for run in 0..4 {
        let shr = build_server(SimClock::new(TimestampMs(0)));
        let handle = spawn_pump(&shr, Duration::from_millis(1));
        stage(&shr, &events);
        wait_processed(&shr, N as u64, Duration::from_secs(30));
        assert_eq!(handle.errors(), 0);
        handle.stop();

        let delivered = shr.notifications().drain_delivered();
        let snap = shr.metrics().snapshot();

        assert_eq!(
            canon(&delivered),
            canon(&seq_delivered),
            "notification multiset diverged in run {run}"
        );
        assert_eq!(
            per_key_order(&delivered),
            per_key_order(&seq_delivered),
            "per-key delivery order diverged in run {run}"
        );
        assert_eq!(snap.events_captured, seq_snap.events_captured);
        assert_eq!(snap.events_processed, seq_snap.events_processed);
        assert_eq!(snap.derived_events, seq_snap.derived_events);
        assert_eq!(snap.deviations, seq_snap.deviations);
        assert_eq!(snap.notifications, seq_snap.notifications);
        assert_eq!(snap.suppressed, seq_snap.suppressed);
        // Nothing left staged behind the stop.
        assert_eq!(shr.admission().depth(), 0);
    }
}

/// A keyed hot stream: one stream whose rules and detector are keyed by
/// `sym`, staged while the pump runs, matches the by-hand outcome key
/// for key.
#[test]
fn keyed_partitioning_is_sequentially_equivalent() {
    const N: usize = 1_500;
    let mut rng = StdRng::seed_from_u64(99);
    let events: Vec<(TimestampMs, Record)> = (0..N)
        .map(|i| {
            let sym = SYMS[rng.gen_range(0..SYMS.len())];
            let px = rng.gen_range(0.0..100.0);
            (
                TimestampMs(i as i64),
                Record::from_iter([Value::from(sym), Value::Float(px)]),
            )
        })
        .collect();

    let build = || {
        let server = EventServer::in_memory(ServerConfig {
            clock: SimClock::new(TimestampMs(0)),
            virt: VirtPolicy {
                suppression_window_ms: 5_000,
                ..Default::default()
            },
            ..Default::default()
        })
        .unwrap();
        server
            .create_stream(
                "ticks",
                Schema::of(&[("sym", DataType::Str), ("px", DataType::Float)]),
            )
            .unwrap();
        server
            .add_alert_rule("hot", "ticks", "px > 70", 1.0, Some("sym"))
            .unwrap();
        server
            .add_detector(
                "band",
                "ticks",
                "px",
                Some("sym"),
                UpdatePolicy::Always,
                || Box::new(ThresholdModel::new(5.0, 80.0)),
            )
            .unwrap();
        Arc::new(server)
    };

    let seq = build();
    for (ts, payload) in &events {
        seq.ingest_async("ticks", *ts, payload.clone()).unwrap();
    }
    seq.pump().unwrap();
    let seq_delivered = seq.notifications().drain_delivered();

    let shr = build();
    let handle = spawn_pump(&shr, Duration::from_millis(1));
    for (ts, payload) in &events {
        shr.ingest_async("ticks", *ts, payload.clone()).unwrap();
    }
    wait_processed(&shr, N as u64, Duration::from_secs(30));
    assert_eq!(handle.errors(), 0);
    handle.stop();
    let delivered = shr.notifications().drain_delivered();

    assert_eq!(canon(&delivered), canon(&seq_delivered));
    assert_eq!(per_key_order(&delivered), per_key_order(&seq_delivered));
}

/// Multi-threaded stress: four producers feed four streams while the
/// pump runs and the main thread churns alert rules. Nothing deadlocks,
/// nothing is lost, and dropping the handle shuts the pump down cleanly.
#[test]
fn concurrent_producers_with_rule_churn() {
    const PER_PRODUCER: usize = 2_000;
    let server = build_server(SimClock::new(TimestampMs(0)));
    let handle = spawn_pump(&server, Duration::from_millis(1));

    let producers: Vec<_> = (0..4)
        .map(|p| {
            let s = Arc::clone(&server);
            std::thread::spawn(move || {
                let stream = format!("s{p}");
                let mut rng = StdRng::seed_from_u64(p as u64);
                for i in 0..PER_PRODUCER {
                    let sym = SYMS[rng.gen_range(0..SYMS.len())];
                    let px = rng.gen_range(0.0..100.0);
                    s.ingest_async(
                        &stream,
                        TimestampMs(i as i64),
                        Record::from_iter([Value::from(sym), Value::Float(px)]),
                    )
                    .unwrap();
                }
            })
        })
        .collect();

    // Rule churn while events are in flight: adds and removals must
    // never wedge the evaluation pipeline or corrupt the matcher.
    for round in 0..50 {
        let stream = format!("s{}", round % 4);
        let id = server
            .add_alert_rule("churn", &stream, "px > 99", 0.5, None)
            .unwrap();
        std::thread::sleep(Duration::from_micros(200));
        server.remove_alert_rule(&stream, id).unwrap();
    }

    for p in producers {
        p.join().unwrap();
    }
    wait_processed(&server, (4 * PER_PRODUCER) as u64, Duration::from_secs(60));
    assert_eq!(handle.errors(), 0);
    drop(handle); // clean shutdown via Drop, not stop()

    let snap = server.metrics().snapshot();
    assert_eq!(snap.events_captured, (4 * PER_PRODUCER) as u64);
    assert_eq!(snap.events_processed, (4 * PER_PRODUCER) as u64);
    assert_eq!(server.admission().depth(), 0);
}

/// Events staged while the pump waits out a long tick are still
/// evaluated by the stop (the shutdown path's final-drain guarantee).
#[test]
fn stop_flushes_staged_events() {
    let server = build_server(SimClock::new(TimestampMs(0)));
    // Long interval: only the work wakes and the final drain pick events up.
    let handle = spawn_pump(&server, Duration::from_millis(250));
    // The first drain happens immediately at spawn; stage afterwards.
    std::thread::sleep(Duration::from_millis(30));
    for i in 0..100 {
        server
            .ingest_async(
                "s0",
                TimestampMs(i),
                Record::from_iter([Value::from("AAA"), Value::Float(50.0)]),
            )
            .unwrap();
    }
    handle.stop(); // must final-drain, not discard
    assert_eq!(server.metrics().snapshot().events_processed, 100);
}

/// Ten events on a stream whose one rule overflows (an evaluation
/// error) on the third: every delivered notification, in order.
fn poisoned_server() -> Arc<EventServer> {
    let server = EventServer::in_memory(ServerConfig {
        clock: SimClock::new(TimestampMs(0)),
        ..Default::default()
    })
    .unwrap();
    server
        .create_stream("orders", Schema::of(&[("oid", DataType::Int), ("qty", DataType::Int)]))
        .unwrap();
    // 2^62 * 2 overflows i64: checked arithmetic makes that an error.
    server
        .add_alert_rule("lot", "orders", "qty * 4611686018427387904 > 0", 1.0, Some("oid"))
        .unwrap();
    for oid in 0..10 {
        let qty = if oid == 2 { 2 } else { 1 };
        server
            .ingest_async(
                "orders",
                TimestampMs(oid),
                Record::from_iter([Value::Int(oid), Value::Int(qty)]),
            )
            .unwrap();
    }
    Arc::new(server)
}

fn assert_nine_of_ten(server: &EventServer) {
    let keys: Vec<String> = server
        .notifications()
        .drain_delivered()
        .into_iter()
        .map(|n| n.key.to_string())
        .collect();
    let want: Vec<String> = (0..10).filter(|o| *o != 2).map(|o| format!("lot:{o}")).collect();
    assert_eq!(keys, want, "the poisoned event's batch-mates are notified");
    let stage = |name: &str| {
        server
            .registry()
            .counter(&format!("evdb_stage_{name}_events_total"))
            .get()
    };
    assert_eq!(
        (stage("capture"), stage("route"), stage("evaluate"), stage("deliver")),
        (10, 10, 9, 9),
        "stage counters balance: ten in, one failed, nine out"
    );
    assert_eq!(server.metrics().snapshot().events_processed, 10);
}

/// A poisoned event costs its batch-mates nothing. At the parent of
/// ISSUE 15 the sequential cycle returned on the first failing event
/// and dropped the rest of the batch it had already drained.
#[test]
fn poisoned_event_does_not_take_its_batch_mates() {
    // By hand: the error comes back, after everything else was done.
    let server = poisoned_server();
    let err = server.pump().expect_err("the overflow is reported");
    assert!(err.to_string().contains("overflow"), "{err}");
    assert_nine_of_ten(&server);

    // By the pump thread: counted, not returned.
    let server = poisoned_server();
    let handle = spawn_pump(&server, Duration::from_millis(1));
    wait_processed(&server, 10, Duration::from_secs(30));
    handle.stop();
    assert_eq!(
        server.registry().counter("evdb_pump_errors_total").get(),
        1,
        "one failed event, one error"
    );
    assert_nine_of_ten(&server);
}

/// History compacts on the maintenance cycle whoever runs it: by hand
/// (`pump()`) or on the pump thread's tick.
#[test]
fn history_compacts_under_both_pump_modes() {
    for background in [false, true] {
        let dir = std::env::temp_dir()
            .join(format!("evdb-pump-history-{}-{background}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = build_server(SimClock::new(TimestampMs(0)));
        let history = server
            .enable_history(
                &dir,
                HistoryConfig {
                    store: SegmentStoreOptions {
                        freeze_rows: 8,
                        zone_rows: 4,
                        ..Default::default()
                    },
                    compaction: Some(CompactionPolicy {
                        max_segments: 3,
                        small_rows: 1_000,
                        max_merge: 4,
                    }),
                },
            )
            .unwrap();
        let handle = background.then(|| spawn_pump(&server, Duration::from_millis(2)));
        for i in 0..256 {
            server
                .ingest_async(
                    "s0",
                    TimestampMs(i),
                    Record::from_iter([Value::from("AAA"), Value::Float(50.0)]),
                )
                .unwrap();
        }
        // 256 rows freeze into 32 segments; one merge per maintenance
        // cycle brings them under the policy's bound.
        let t0 = Instant::now();
        loop {
            if handle.is_none() {
                server.pump().unwrap();
            }
            let (segments, stats) = history.stats();
            if stats.freezes == 32 && segments <= 3 {
                break;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "background {background}: {segments} segments after {} freezes and {} merges",
                stats.freezes,
                stats.compactions
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        if let Some(handle) = handle {
            assert_eq!(handle.errors(), 0);
            handle.stop();
        }
        assert_eq!(server.metrics().snapshot().events_processed, 256);
        assert_eq!(server.replay("s0", 0, u64::MAX).unwrap().len(), 256);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

fn row_schema() -> Arc<Schema> {
    Schema::of(&[("id", DataType::Int), ("v", DataType::Float)])
}

/// Three pull-based captures — journal, query poll, journal — whose
/// middle one will fail to poll once its table is dropped, plus a plain
/// stream; every stream notifies on every event.
fn server_with_a_failing_capture(clock: Arc<SimClock>) -> Arc<EventServer> {
    let server = EventServer::in_memory(ServerConfig {
        clock,
        ..Default::default()
    })
    .unwrap();
    for (table, mechanism) in [
        ("a", CaptureMechanism::Journal),
        ("b", CaptureMechanism::QueryPoll { interval_ms: 1 }),
        ("c", CaptureMechanism::Journal),
    ] {
        server.db().create_table(table, row_schema(), "id").unwrap();
        let stream = server.capture_table(table, mechanism).unwrap();
        server
            .add_alert_rule(&format!("all-{table}"), &stream, "TRUE", 1.0, Some("row_key"))
            .unwrap();
    }
    server.create_stream("s", row_schema()).unwrap();
    server.add_alert_rule("all-s", "s", "TRUE", 1.0, None).unwrap();
    Arc::new(server)
}

fn insert_rows(server: &EventServer, table: &str, ids: std::ops::Range<i64>) {
    for id in ids {
        let row = Record::from_iter([Value::Int(id), Value::Float(id as f64)]);
        server.db().insert(table, row).unwrap();
    }
}

/// A capture whose poll fails costs the cycle nothing else. At the
/// parent of ISSUE 16 `poll_captures` returned on the first failing
/// poll: the events already drained from admission and from earlier
/// captures (their journal positions advanced) were dropped, and the
/// captures after it were not polled.
#[test]
fn failing_capture_poll_keeps_what_the_cycle_drained() {
    for background in [false, true] {
        let clock = SimClock::new(TimestampMs(0));
        let server = server_with_a_failing_capture(clock.clone());
        server.pump().unwrap(); // the query poll takes its (empty) baseline
        insert_rows(&server, "a", 0..3);
        insert_rows(&server, "c", 0..2);
        for id in 0..4 {
            let row = Record::from_iter([Value::Int(id), Value::Float(0.0)]);
            server.ingest_async("s", TimestampMs(id), row).unwrap();
        }
        server.db().drop_table("b").unwrap();
        clock.advance(10); // b's poll is due, and fails

        let errors = || server.registry().counter("evdb_pump_errors_total").get();
        // The pump thread delivers behind this one: collect the log
        // until `n` notifications are in.
        let delivered = |n: usize| {
            let (mut log, t0) = (Vec::new(), Instant::now());
            loop {
                log.extend(server.notifications().drain_delivered());
                if log.len() >= n {
                    return log;
                }
                assert!(t0.elapsed() < Duration::from_secs(30), "{} of {n} notified", log.len());
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        let handle = if background {
            Some(spawn_pump(&server, Duration::from_millis(2)))
        } else {
            let err = server.pump().expect_err("the failed poll is reported");
            assert!(err.to_string().contains("'b'"), "{err}");
            None
        };
        let log = delivered(9);
        let mut titles: Vec<&str> = log.iter().map(|n| &*n.title).collect();
        titles.sort_unstable();
        titles.dedup();
        assert_eq!(
            (server.metrics().snapshot().events_processed, log.len(), titles.len()),
            (9, 9, 3),
            "background {background}: staged events and both journals' changes evaluated: {titles:?}"
        );

        // The table comes back: the next due poll recovers, no new error.
        server.db().create_table("b", row_schema(), "id").unwrap();
        insert_rows(&server, "b", 0..1);
        clock.advance(10);
        match handle {
            None => assert_eq!(server.pump().unwrap().notified, 1),
            Some(handle) => {
                assert_eq!(delivered(1).len(), 1);
                handle.stop();
                assert_eq!(errors(), 1, "one failed poll, one error");
            }
        }
    }
}
