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
//! The cases after them are the other side of the same coin, the served
//! path and the cycle gate: a connection's reader runs the cycle its
//! read staged and writes the results itself, so a paced connection
//! takes *no* hand-off (counted: zero work wakes, zero writer hand-offs,
//! one inline cycle per request); racing connections take the hand-off
//! and lose nothing; and `pump()` beside a background pump cannot
//! reorder a key's events.
//!
//! Timing assertions: run in release (`cargo test --release --test
//! pump_wakeup`, its own CI step).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use evdb::core::server::ServerConfig;
use evdb::core::{spawn_pump, CaptureMechanism, EventServer, PumpHandle};
use evdb::net::frame::{encode_frame_vec, FrameDecoder};
use evdb::net::{NetConfig, NetServer};
use evdb::types::{DataType, Record, Schema, TimestampMs, Value};

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
fn spawn_parked(server: &Arc<EventServer>, interval: Duration) -> PumpHandle {
    let handle = spawn_pump(server, interval);
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
    let (server, results) = notifying_server(&["ticks"]);
    let handle = spawn_parked(&server, LONG_INTERVAL);
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
            .unwrap_or_else(|_| panic!("event {id} waited for the tick"));
        assert_eq!(got, id);
        assert!(sent.elapsed() < DEADLINE);
        // Let the pump park again so each event needs its own wake.
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        counter(&server, "evdb_pump_wakeups_total{cause=\"work\"}") >= work_wakes + 3,
        "the wakes must be counted as work wakes"
    );
    assert_eq!(handle.errors(), 0);
    handle.stop();
}

#[test]
fn trigger_captured_insert_wakes_the_parked_pump() {
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
    let handle = spawn_parked(&server, LONG_INTERVAL);
    server
        .db()
        .insert("t", Record::from_iter([Value::Int(1), Value::Int(10)]))
        .unwrap();
    rx.recv_timeout(DEADLINE)
        .unwrap_or_else(|_| panic!("the captured insert waited for the tick"));
    handle.stop();
}

#[test]
fn stop_and_drop_do_not_wait_out_the_tick() {
    let (server, _results) = notifying_server(&["ticks"]);

    let handle = spawn_parked(&server, LONG_INTERVAL);
    let t0 = Instant::now();
    handle.stop();
    assert!(
        t0.elapsed() < DEADLINE,
        "stop() took {:?}",
        t0.elapsed()
    );

    let handle = spawn_parked(&server, LONG_INTERVAL);
    let t0 = Instant::now();
    drop(handle);
    assert!(
        t0.elapsed() < DEADLINE,
        "drop took {:?}",
        t0.elapsed()
    );

    assert!(counter(&server, "evdb_pump_wakeups_total{cause=\"stop\"}") >= 2);
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
    for seed in 1..=20u64 {
        let (server, results) = notifying_server(&streams);
        let handle = spawn_parked(&server, LONG_INTERVAL);
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
                    "seed {seed}: {delivered} of {TOTAL} results \
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
            "seed {seed}: events not delivered exactly once: {:?}",
            &wrong[..wrong.len().min(10)]
        );
    }
}

/// Maintenance still runs on the tick: a journal-mined commit stages
/// nothing, so no wake announces it — only the tick finds it. First with
/// the pump otherwise idle, then with a producer keeping it busy with
/// work wakes, which must not starve the tick.
#[test]
fn journal_capture_is_polled_on_the_tick() {
    const TICK: Duration = Duration::from_millis(20);
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
    let handle = spawn_parked(&server, TICK);
    let insert_and_await = |id: i64, when: &str| {
        server
            .db()
            .insert("t", Record::from_iter([Value::Int(id), Value::Int(0)]))
            .unwrap();
        rows.recv_timeout(DEADLINE)
            .unwrap_or_else(|_| panic!("committed row not mined {when}"));
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
        "the noise producer never woke the pump"
    );
    handle.stop();
    // Two mined rows, and every noise event evaluated by the stop.
    assert_eq!(server.metrics().snapshot().events_captured, 2 + sent);
}

// ---- the served path -------------------------------------------------

/// A blocking line-protocol client.
struct Client {
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(25)))
            .unwrap();
        Client {
            stream,
            decoder: FrameDecoder::new(),
        }
    }

    fn send(&mut self, cmd: &str) {
        self.stream
            .write_all(&encode_frame_vec(cmd.as_bytes()))
            .unwrap();
    }

    /// Next frame, waiting up to `wait`; `None` on timeout.
    fn try_recv(&mut self, wait: Duration) -> Option<String> {
        let deadline = Instant::now() + wait;
        loop {
            if let Some(frame) = self.decoder.next_frame() {
                return Some(String::from_utf8(frame.unwrap()).unwrap());
            }
            if Instant::now() >= deadline {
                return None;
            }
            let mut buf = [0u8; 16 * 1024];
            match self.stream.read(&mut buf) {
                Ok(0) => return None,
                Ok(n) => self.decoder.push(&buf[..n]),
                Err(_) => {} // timeout tick
            }
        }
    }

    fn recv(&mut self) -> String {
        self.try_recv(Duration::from_secs(5))
            .expect("timed out waiting for a frame")
    }

    fn call(&mut self, cmd: &str) -> String {
        self.send(cmd);
        self.recv()
    }
}

/// A server with stream `s`, the stateless query `feed` over it, and a
/// background pump on `pump_interval` (parked by the time this returns).
fn served(pump_interval: Option<Duration>) -> (NetServer, Client) {
    let engine = Arc::new(EventServer::in_memory(ServerConfig::default()).unwrap());
    let server = NetServer::start(
        engine,
        NetConfig {
            http_addr: None,
            pump_interval,
            session_buffer: 1 << 16,
            ..Default::default()
        },
    )
    .unwrap();
    let mut admin = Client::connect(server.tcp_addr());
    assert_eq!(admin.call("CREATE STREAM s v:INT"), "OK");
    assert_eq!(admin.call("REGISTER QUERY feed SELECT v FROM s"), "OK");
    if pump_interval.is_some() {
        let t0 = Instant::now();
        while counter(server.engine(), "evdb_pump_cycles_total") == 0 {
            assert!(t0.elapsed() < Duration::from_secs(5), "pump never started");
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    (server, admin)
}

/// Counted, not timed: a connection that sends one request at a time is
/// served end to end by its own reader thread.
#[test]
fn a_paced_connection_takes_no_hand_off() {
    const REQUESTS: i64 = 200;
    // The tick must not fall inside the run: a tick turn leaves the
    // reader's quietly staged events alone (D10), but it is a cycle of
    // its own and would be counted in `evdb_pump_cycles_total` below.
    let (mut server, mut conn) = served(Some(Duration::from_secs(120)));
    assert_eq!(conn.call("SUBSCRIBE feed"), "OK subscribed feed");
    let engine = Arc::clone(server.engine());
    let before = |name: &str| counter(&engine, name);
    let cycles = before("evdb_pump_cycles_total");
    let direct = before("evdb_server_direct_flushes_total");
    for i in 0..REQUESTS {
        conn.send(&format!("INGEST s {i} {i}"));
        let mut got = [conn.recv(), conn.recv()];
        got.sort();
        assert_eq!(got, ["OK staged".to_string(), format!("UPDATE feed + {i}")]);
    }
    // The reader counts a cycle after running it, which is after the
    // update is out: one more round trip and the counts have settled.
    assert_eq!(conn.call("PING"), "PONG");
    assert_eq!(before("evdb_pump_wakeups_total{cause=\"work\"}"), 0);
    assert_eq!(before("evdb_pump_inline_cycles_total"), REQUESTS as u64);
    assert_eq!(before("evdb_pump_cycles_total"), cycles + REQUESTS as u64);
    assert_eq!(before("evdb_server_writer_handoffs_total"), 0);
    // Reply and update left in one send each time. (Not exact: a flush
    // is counted after its send, so the replies around the loop may or
    // may not be in either reading.)
    let flushes = before("evdb_server_direct_flushes_total") - direct;
    assert!(
        (REQUESTS as u64..=REQUESTS as u64 + 2).contains(&flushes),
        "{flushes} sends for {REQUESTS} requests"
    );
    assert_eq!(before("evdb_server_updates_dropped_total"), 0);
    assert_eq!(before("evdb_pump_errors_total"), 0);
    server.shutdown();
}

/// With no background pump nothing stands in for one: `INGEST` stages
/// and evaluates nothing until `PUMP` (the golden transcripts'
/// deterministic mode).
#[test]
fn without_a_pump_ingest_evaluates_nothing_until_pump() {
    let (mut server, mut conn) = served(None);
    assert_eq!(conn.call("SUBSCRIBE feed"), "OK subscribed feed");
    for i in 0..3 {
        assert_eq!(conn.call(&format!("INGEST s {i} {i}")), "OK staged");
    }
    assert_eq!(conn.try_recv(Duration::from_millis(100)), None);
    assert_eq!(server.engine().admission().depth(), 3);
    assert_eq!(server.engine().metrics().snapshot().events_processed, 0);
    conn.send("PUMP");
    let got: Vec<String> = (0..4).map(|_| conn.recv()).collect();
    assert_eq!(
        got,
        [
            "UPDATE feed + 0",
            "UPDATE feed + 1",
            "UPDATE feed + 2",
            "OK captured=3 derived=3 notified=0"
        ]
    );
    assert_eq!(counter(server.engine(), "evdb_pump_inline_cycles_total"), 0);
    server.shutdown();
}

/// `no_wakeup_is_lost_under_racing_producers` over sockets: two
/// connections stage into one stream as fast as their acks come back, so
/// each keeps finding the other's cycle in flight, waits it out and
/// evaluates whatever that cycle left. Every event reaches the
/// subscriber exactly once, each connection's in the order it sent
/// them, and none waits for the tick.
#[test]
fn racing_connections_take_turns_without_loss_or_reordering() {
    const PRODUCERS: i64 = 2;
    const PER_PRODUCER: i64 = 4_000;
    const BURST: i64 = 8;
    let (mut server, _admin) = served(Some(LONG_INTERVAL));
    let addr = server.tcp_addr();
    let mut sink = Client::connect(addr);
    assert_eq!(sink.call("SUBSCRIBE feed"), "OK subscribed feed");
    let start = Arc::new(Barrier::new(PRODUCERS as usize));
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut conn = Client::connect(addr);
                start.wait();
                for first in (0..PER_PRODUCER).step_by(BURST as usize) {
                    for i in first..first + BURST {
                        let v = p * 1_000_000 + i;
                        conn.send(&format!("INGEST s {v} {v}"));
                    }
                    for _ in 0..BURST {
                        assert_eq!(conn.recv(), "OK staged");
                    }
                }
            })
        })
        .collect();
    let mut next = [0i64; PRODUCERS as usize];
    let mut last_progress = Instant::now();
    while next.iter().sum::<i64>() < PRODUCERS * PER_PRODUCER {
        let Some(frame) = sink.try_recv(DEADLINE) else {
            // Nothing for a whole deadline: fine while producers are
            // still sending slowly, a lost wake-up once they are done.
            assert!(
                producers.iter().any(|p| !p.is_finished())
                    || last_progress.elapsed() < 2 * DEADLINE,
                "{next:?} of {PER_PRODUCER} each arrived — an event waited for the tick"
            );
            continue;
        };
        last_progress = Instant::now();
        let v: i64 = frame
            .strip_prefix("UPDATE feed + ")
            .unwrap_or_else(|| panic!("unexpected frame {frame}"))
            .parse()
            .unwrap();
        let (p, i) = ((v / 1_000_000) as usize, v % 1_000_000);
        assert_eq!(i, next[p], "connection {p}: lost, duplicated or reordered");
        next[p] += 1;
    }
    for p in producers {
        p.join().unwrap();
    }
    assert_eq!(
        sink.try_recv(Duration::from_millis(50)),
        None,
        "a duplicate"
    );
    let engine = server.engine();
    // The readers served themselves: with the tick two seconds away the
    // pump thread only takes what a reader leaves after its last pass.
    let inline = counter(engine, "evdb_pump_inline_cycles_total");
    let handed = counter(engine, "evdb_pump_wakeups_total{cause=\"work\"}");
    assert!(
        inline > 0 && handed < inline,
        "{inline} cycles on the readers, {handed} turns of the pump thread"
    );
    assert_eq!(counter(engine, "evdb_server_updates_dropped_total"), 0);
    assert_eq!(counter(engine, "evdb_pump_errors_total"), 0);
    server.shutdown();
}

/// `pump()` beside a background pump (what `PUMP` on a served
/// connection is): both drain the one buffer, and only the cycle gate
/// keeps the second batch from being evaluated beside the first — which
/// would let a later event of a key overtake an earlier one.
#[test]
fn pump_beside_the_background_pump_keeps_arrival_order() {
    const EVENTS: i64 = 50_000;
    let server = Arc::new(EventServer::in_memory(ServerConfig::default()).unwrap());
    server
        .create_stream("s", Schema::of(&[("seq", DataType::Int)]))
        .unwrap();
    server.register_cql("feed", "SELECT seq FROM s").unwrap();
    let last = Arc::new(AtomicI64::new(-1));
    let inversions = Arc::new(AtomicI64::new(0));
    {
        let (last, inversions) = (Arc::clone(&last), Arc::clone(&inversions));
        server
            .on_query_updates("feed", move |row, _| {
                let seq = row.get(0).and_then(Value::as_int).unwrap();
                if last.swap(seq, Ordering::SeqCst) >= seq {
                    inversions.fetch_add(1, Ordering::SeqCst);
                }
            })
            .unwrap();
    }
    let handle = spawn_pump(&server, LONG_INTERVAL);
    let done = Arc::new(AtomicBool::new(false));
    let hammer = {
        let (server, done) = (Arc::clone(&server), Arc::clone(&done));
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                server.pump().unwrap();
            }
        })
    };
    for seq in 0..EVENTS {
        server
            .ingest_async("s", TimestampMs(seq), Record::from_iter([Value::Int(seq)]))
            .unwrap();
    }
    done.store(true, Ordering::Relaxed);
    hammer.join().unwrap();
    handle.stop();
    assert_eq!(server.metrics().snapshot().events_processed, EVENTS as u64);
    assert_eq!(last.load(Ordering::SeqCst), EVENTS - 1);
    assert_eq!(
        inversions.load(Ordering::SeqCst),
        0,
        "a subscriber saw events of one stream out of arrival order"
    );
}
