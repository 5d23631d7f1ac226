//! The background pump is woken by staged work, not by its interval.
//!
//! Every case runs with a pump interval far longer than its deadline
//! (2 s against 250 ms), so a pass cannot come from the maintenance
//! tick: it has to come from `admit` waking the parked pump (or, for
//! stop/drop, from `PumpHandle` waking it). The last case turns that
//! around — a short interval and a pull-based capture that no wake ever
//! announces — to show the tick still runs, with and without work wakes
//! competing for the pump.
//!
//! Each case runs for `PumpMode::Sequential` and `Sharded { workers: 2 }`.
//! Timing assertions: run in release (`cargo test --release --test
//! pump_wakeup`, its own CI step).

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use evdb::core::server::ServerConfig;
use evdb::core::{spawn_pump_with, CaptureMechanism, EventServer, PumpHandle, PumpMode};
use evdb::types::{DataType, Record, Schema, TimestampMs, Value};

const MODES: [PumpMode; 2] = [PumpMode::Sequential, PumpMode::Sharded { workers: 2 }];

/// Longer than any deadline below: a result that waited for the tick
/// misses its deadline by a wide margin.
const LONG_INTERVAL: Duration = Duration::from_secs(2);

/// How soon a staged event's result (or a stop) must land.
const DEADLINE: Duration = Duration::from_millis(250);

/// A server whose stream `ticks` (and every extra stream) notifies on
/// every event; the notification's timestamp is the event's, which the
/// tests use as the event id. Returns the receiver of those ids.
fn notifying_server(streams: &[&str]) -> (Arc<EventServer>, Receiver<i64>) {
    let server = Arc::new(EventServer::in_memory(ServerConfig::default()).unwrap());
    let schema = Schema::of(&[("v", DataType::Int)]);
    for stream in streams {
        server.create_stream(stream, Arc::clone(&schema)).unwrap();
        server
            .add_alert_rule("any", stream, "TRUE", 1.0, None)
            .unwrap();
    }
    let results = notification_timestamps(&server);
    (server, results)
}

/// Every delivered notification's timestamp, in delivery order.
fn notification_timestamps(server: &EventServer) -> Receiver<i64> {
    let (tx, rx) = channel();
    let tx = Mutex::new(tx);
    server.on_notification(Arc::new(move |n| {
        let _ = tx.lock().unwrap().send(n.timestamp.0);
    }));
    rx
}

/// Spawn a pump and wait until it is parked: its start-up cycle is done
/// and nothing is staged, so the next thing it does is wait.
fn spawn_parked(server: &Arc<EventServer>, interval: Duration, mode: PumpMode) -> PumpHandle {
    let handle = spawn_pump_with(server, interval, mode);
    let t0 = Instant::now();
    while handle.cycles() == 0 {
        assert!(t0.elapsed() < Duration::from_secs(5), "pump never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    // The cycle counter ticks just before the pump re-enters its wait.
    std::thread::sleep(Duration::from_millis(20));
    handle
}

fn counter(server: &EventServer, name: &str) -> u64 {
    server.registry().snapshot().counters[name]
}

#[test]
fn ingest_async_wakes_the_parked_pump() {
    for mode in MODES {
        let (server, results) = notifying_server(&["ticks"]);
        let handle = spawn_parked(&server, LONG_INTERVAL, mode);
        let work_wakes = counter(&server, "evdb_pump_wakeups_total{cause=\"work\"}");
        for id in 0..3 {
            let sent = Instant::now();
            server
                .ingest_async(
                    "ticks",
                    TimestampMs(id),
                    Record::from_iter([Value::Int(id)]),
                )
                .unwrap();
            let got = results
                .recv_timeout(DEADLINE)
                .unwrap_or_else(|_| panic!("{mode:?}: event {id} waited for the tick"));
            assert_eq!(got, id);
            assert!(sent.elapsed() < DEADLINE);
            // Let the pump park again so each event needs its own wake.
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(
            counter(&server, "evdb_pump_wakeups_total{cause=\"work\"}") >= work_wakes + 3,
            "{mode:?}: the wakes must be counted as work wakes"
        );
        assert_eq!(handle.errors(), 0);
        handle.stop();
    }
}

#[test]
fn trigger_captured_insert_wakes_the_parked_pump() {
    for mode in MODES {
        let server = Arc::new(EventServer::in_memory(ServerConfig::default()).unwrap());
        server
            .db()
            .create_table(
                "t",
                Schema::of(&[("id", DataType::Int), ("v", DataType::Int)]),
                "id",
            )
            .unwrap();
        let stream = server
            .capture_table("t", CaptureMechanism::Trigger)
            .unwrap();
        server
            .add_alert_rule("any", &stream, "TRUE", 1.0, None)
            .unwrap();
        let rx = notification_timestamps(&server);
        let handle = spawn_parked(&server, LONG_INTERVAL, mode);
        server
            .db()
            .insert("t", Record::from_iter([Value::Int(1), Value::Int(10)]))
            .unwrap();
        rx.recv_timeout(DEADLINE)
            .unwrap_or_else(|_| panic!("{mode:?}: the captured insert waited for the tick"));
        handle.stop();
    }
}

#[test]
fn stop_and_drop_do_not_wait_out_the_tick() {
    for mode in MODES {
        let (server, _results) = notifying_server(&["ticks"]);

        let handle = spawn_parked(&server, LONG_INTERVAL, mode);
        let t0 = Instant::now();
        handle.stop();
        assert!(
            t0.elapsed() < DEADLINE,
            "{mode:?}: stop() took {:?}",
            t0.elapsed()
        );

        let handle = spawn_parked(&server, LONG_INTERVAL, mode);
        let t0 = Instant::now();
        drop(handle);
        assert!(
            t0.elapsed() < DEADLINE,
            "{mode:?}: drop took {:?}",
            t0.elapsed()
        );

        assert!(counter(&server, "evdb_pump_wakeups_total{cause=\"stop\"}") >= 2);
    }
}

/// xorshift64*: the gaps only need to differ from seed to seed.
fn next_rand(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Lost-wake-up stress: producers admit with gaps around the time the
/// pump takes to drain and park again, so admits keep landing in the
/// window between the pump's emptiness check and its wait. A lost wake
/// strands an event until the 2 s tick and fails the deadline.
#[test]
fn no_wakeup_is_lost_under_racing_producers() {
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: usize = 5_000;
    const TOTAL: usize = PRODUCERS * PER_PRODUCER;
    let streams = ["p0", "p1", "p2", "p3"];
    for mode in MODES {
        for seed in 1..=20u64 {
            let (server, results) = notifying_server(&streams);
            let handle = spawn_parked(&server, LONG_INTERVAL, mode);
            let start = Arc::new(Barrier::new(PRODUCERS));
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let server = Arc::clone(&server);
                    let start = Arc::clone(&start);
                    std::thread::spawn(move || {
                        let mut rng = seed * 1_000 + p as u64 + 1;
                        start.wait();
                        for i in 0..PER_PRODUCER {
                            let id = (p * PER_PRODUCER + i) as i64;
                            server
                                .ingest_async(
                                    streams[p],
                                    TimestampMs(id),
                                    Record::from_iter([Value::Int(id)]),
                                )
                                .unwrap();
                            // 0–200 µs; the short ones as a bare yield,
                            // which a sleep cannot express.
                            let gap = next_rand(&mut rng) % 201;
                            if gap < 50 {
                                std::thread::yield_now();
                            } else {
                                std::thread::sleep(Duration::from_micros(gap));
                            }
                        }
                    })
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            let last_admit = Instant::now();

            let seen: Vec<AtomicU8> = (0..TOTAL).map(|_| AtomicU8::new(0)).collect();
            let mut delivered = 0;
            while delivered < TOTAL {
                let left = DEADLINE.saturating_sub(last_admit.elapsed());
                let Ok(id) = results.recv_timeout(left) else {
                    panic!(
                        "{mode:?} seed {seed}: {delivered} of {TOTAL} results \
                         {DEADLINE:?} after the last admit — a wake-up was lost"
                    );
                };
                seen[id as usize].fetch_add(1, Ordering::Relaxed);
                delivered += 1;
            }
            assert_eq!(handle.errors(), 0);
            handle.stop();
            // Stopped and joined: anything still in flight has landed.
            for id in results.try_iter() {
                seen[id as usize].fetch_add(1, Ordering::Relaxed);
            }
            let wrong: Vec<usize> = (0..TOTAL)
                .filter(|&id| seen[id].load(Ordering::Relaxed) != 1)
                .collect();
            assert!(
                wrong.is_empty(),
                "{mode:?} seed {seed}: events not delivered exactly once: {:?}",
                &wrong[..wrong.len().min(10)]
            );
        }
    }
}

/// Maintenance still runs on the tick: a journal-mined commit stages
/// nothing, so no wake announces it — only the tick finds it. First with
/// the pump otherwise idle, then with a producer keeping it busy with
/// work wakes, which must not starve the tick.
#[test]
fn journal_capture_is_polled_on_the_tick() {
    const TICK: Duration = Duration::from_millis(20);
    for mode in MODES {
        let server = Arc::new(EventServer::in_memory(ServerConfig::default()).unwrap());
        server
            .db()
            .create_table(
                "t",
                Schema::of(&[("id", DataType::Int), ("v", DataType::Int)]),
                "id",
            )
            .unwrap();
        let mined = server
            .capture_table("t", CaptureMechanism::Journal)
            .unwrap();
        // Only the mined stream notifies; `noise` is evaluated silently.
        server
            .add_alert_rule("any", &mined, "TRUE", 1.0, None)
            .unwrap();
        server
            .create_stream("noise", Schema::of(&[("v", DataType::Int)]))
            .unwrap();
        let rows = notification_timestamps(&server);
        let handle = spawn_parked(&server, TICK, mode);
        let insert_and_await = |id: i64, when: &str| {
            server
                .db()
                .insert("t", Record::from_iter([Value::Int(id), Value::Int(0)]))
                .unwrap();
            rows.recv_timeout(DEADLINE)
                .unwrap_or_else(|_| panic!("{mode:?}: committed row not mined {when}"));
        };

        insert_and_await(1, "by an idle pump's tick");

        let stop = Arc::new(AtomicBool::new(false));
        let noise = {
            let (server, stop) = (Arc::clone(&server), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut sent = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    server
                        .ingest_async("noise", TimestampMs(0), Record::from_iter([Value::Int(0)]))
                        .unwrap();
                    sent += 1;
                    std::thread::sleep(Duration::from_micros(50));
                }
                sent
            })
        };
        // Let the work wakes get going before the commit.
        std::thread::sleep(Duration::from_millis(10));
        let work_wakes = counter(&server, "evdb_pump_wakeups_total{cause=\"work\"}");
        insert_and_await(2, "under continuous work wakes");
        stop.store(true, Ordering::Relaxed);
        let sent = noise.join().unwrap();
        assert!(
            counter(&server, "evdb_pump_wakeups_total{cause=\"work\"}") > work_wakes,
            "{mode:?}: the noise producer never woke the pump"
        );
        handle.stop();
        // Two mined rows, and every noise event evaluated by the stop.
        assert_eq!(
            server.metrics().snapshot().events_captured,
            2 + sent,
            "{mode:?}"
        );
    }
}
