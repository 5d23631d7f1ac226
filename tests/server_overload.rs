//! Socket-level overload regressions (DESIGN.md D13): each admission
//! policy's behavior as observed by a real network client —
//!
//! * `Reject` → a typed `ERR overloaded` reply, the triggering write
//!   rolled back, and the client-observed rejection count equal to the
//!   admission counters;
//! * `Block` → the producer's socket stalls (no reply) until another
//!   connection pumps the buffer down — or, with a background pump
//!   attached, until the blocked reader has woken it (not until its
//!   tick);
//! * `ShedLowest` → every offer acknowledged, the overflow counted in
//!   `evdb_ingest_shed_total`, and `offered == evaluated + shed` exact.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use evdb::core::server::ServerConfig;
use evdb::core::{EventServer, OverloadPolicy};
use evdb::net::frame::{encode_frame_vec, FrameDecoder};
use evdb::net::{NetConfig, NetServer};
use evdb::types::{SimClock, TimestampMs};

/// A blocking protocol client over a real socket.
struct Client {
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
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

    /// Next frame, waiting up to `wait`. `None` on timeout.
    fn try_recv(&mut self, wait: Duration) -> Option<String> {
        let deadline = Instant::now() + wait;
        loop {
            if let Some(frame) = self.decoder.next_frame() {
                return Some(String::from_utf8(frame.unwrap()).unwrap());
            }
            if Instant::now() >= deadline {
                return None;
            }
            let mut buf = [0u8; 4096];
            match self.stream.read(&mut buf) {
                Ok(0) => return None,
                Ok(n) => self.decoder.push(&buf[..n]),
                Err(_) => {} // timeout tick
            }
        }
    }

    fn recv(&mut self) -> String {
        self.try_recv(Duration::from_secs(5))
            .expect("timed out waiting for a reply")
    }

    /// Round trip: send, read one reply.
    fn call(&mut self, cmd: &str) -> String {
        self.send(cmd);
        self.recv()
    }
}

fn server_with(capacity: usize, overload: OverloadPolicy) -> NetServer {
    let engine = Arc::new(
        EventServer::in_memory(ServerConfig {
            clock: SimClock::new(TimestampMs(0)),
            ingest_capacity: capacity,
            overload,
            ..Default::default()
        })
        .unwrap(),
    );
    NetServer::start(
        engine,
        NetConfig {
            http_addr: None,
            pump_interval: None, // tests control draining explicitly
            ..Default::default()
        },
    )
    .unwrap()
}

/// A server with connection-lifecycle limits (cap + idle deadline) and
/// the HTTP frontend enabled, for the D13 connection-contract tests.
fn server_limited(max_connections: usize, idle_timeout: Option<Duration>) -> NetServer {
    let engine = Arc::new(
        EventServer::in_memory(ServerConfig {
            clock: SimClock::new(TimestampMs(0)),
            ..Default::default()
        })
        .unwrap(),
    );
    NetServer::start(
        engine,
        NetConfig {
            pump_interval: None,
            max_connections,
            idle_timeout,
            ..Default::default()
        },
    )
    .unwrap()
}

/// Poll the shared connection gauge down to `expect` (teardown is
/// asynchronous after a client drop).
fn wait_active_connections(server: &NetServer, expect: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let active = server
            .hub()
            .active_connections
            .load(std::sync::atomic::Ordering::Relaxed);
        if active == expect {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "active_connections stuck at {active}, want {expect} (gauge leak?)"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn over_cap_tcp_connect_is_rejected_typed_and_counted() {
    let mut server = server_limited(2, None);
    let addr = server.tcp_addr();
    let mut a = Client::connect(addr);
    let mut b = Client::connect(addr);
    assert_eq!(a.call("PING"), "PONG");
    assert_eq!(b.call("PING"), "PONG");

    // Third connect: typed rejection frame, then EOF — never silence.
    let mut over = Client::connect(addr);
    assert_eq!(
        over.recv(),
        "ERR overloaded connection limit (2) reached"
    );
    assert_eq!(
        over.try_recv(Duration::from_secs(5)),
        None,
        "rejected connection must be closed after the error frame"
    );
    assert_eq!(server.metrics().conns_rejected.get(), 1);

    // Releasing a slot makes room: drop one admitted client, wait for
    // its teardown, and a fresh connect is served again.
    drop(b);
    wait_active_connections(&server, 1);
    let mut c = Client::connect(addr);
    assert_eq!(c.call("PING"), "PONG");
    assert_eq!(
        server.metrics().conns_rejected.get(),
        1,
        "the post-release connect must be admitted, not rejected"
    );
    server.shutdown();
}

#[test]
fn over_cap_http_connect_gets_503_and_counted() {
    let mut server = server_limited(1, None);
    // One TCP client consumes the whole (shared) budget…
    let mut holder = Client::connect(server.tcp_addr());
    assert_eq!(holder.call("PING"), "PONG");

    // …so an HTTP connect is refused with a full 503 response before
    // any request is read.
    let mut stream = TcpStream::connect(server.http_addr().unwrap()).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap(); // server closes after the 503
    let response = String::from_utf8(response).unwrap();
    assert!(
        response.starts_with("HTTP/1.1 503 Service Unavailable"),
        "{response}"
    );
    assert!(response.contains("connection limit (1) reached"), "{response}");
    assert_eq!(server.metrics().conns_rejected.get(), 1);

    drop(holder);
    wait_active_connections(&server, 0);
    server.shutdown();
}

#[test]
fn idle_tcp_connection_is_reaped_releasing_thread_and_hub_slot() {
    let mut server = server_limited(16, Some(Duration::from_millis(200)));
    let mut c = Client::connect(server.tcp_addr());
    assert_eq!(c.call("CREATE STREAM s v:INT"), "OK");
    assert_eq!(c.call("REGISTER QUERY q SELECT v FROM s"), "OK");
    assert_eq!(c.call("SUBSCRIBE q"), "OK subscribed q");

    // Go silent. The reaper must announce the close (typed), then EOF.
    let reply = c
        .try_recv(Duration::from_secs(5))
        .expect("idle connection was never reaped");
    assert_eq!(reply, "ERR idle connection idle for 200ms, closing");
    assert_eq!(
        c.try_recv(Duration::from_secs(5)),
        None,
        "reaped connection must be closed"
    );

    // The reap released everything: hub slot, subscription, counted.
    wait_active_connections(&server, 0);
    assert_eq!(server.hub().active_subscriptions(), 0);
    assert_eq!(server.metrics().conns_reaped.get(), 1);
    assert_eq!(server.metrics().conns_rejected.get(), 0);
    server.shutdown();
}

#[test]
fn traffic_in_either_direction_defers_the_reaper() {
    let mut server = server_limited(16, Some(Duration::from_millis(250)));
    let mut c = Client::connect(server.tcp_addr());
    // Ping every ~80ms for well past the idle limit: each round trip
    // counts as traffic, so the connection must survive.
    let until = Instant::now() + Duration::from_millis(900);
    while Instant::now() < until {
        assert_eq!(c.call("PING"), "PONG", "live connection was reaped");
        std::thread::sleep(Duration::from_millis(80));
    }
    assert_eq!(server.metrics().conns_reaped.get(), 0);
    server.shutdown();
}

#[test]
fn oversized_http_header_section_is_bounded_with_431() {
    let mut server = server_limited(16, Some(Duration::from_secs(5)));
    let mut stream = TcpStream::connect(server.http_addr().unwrap()).unwrap();
    // A header section past MAX_HEAD_BYTES (8 KiB): the server must cut
    // it off with 431 instead of buffering without bound.
    stream.write_all(b"GET /metrics HTTP/1.1\r\n").unwrap();
    let filler = format!("X-Padding: {}\r\n", "a".repeat(1024));
    for _ in 0..16 {
        if stream.write_all(filler.as_bytes()).is_err() {
            break; // server already gave up on us — fine
        }
    }
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response); // server closes the socket
    let response = String::from_utf8_lossy(&response);
    assert!(
        response.starts_with("HTTP/1.1 431 "),
        "oversized head must be answered with 431, got: {response}"
    );
    wait_active_connections(&server, 0);
    server.shutdown();
}

#[test]
fn reject_surfaces_typed_error_and_exact_counters() {
    let mut server = server_with(2, OverloadPolicy::Reject);
    let mut c = Client::connect(server.tcp_addr());
    assert_eq!(c.call("CREATE STREAM s v:INT"), "OK");

    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for i in 0..10 {
        let reply = c.call(&format!("INGEST s {i} {i}"));
        if reply == "OK staged" {
            accepted += 1;
        } else {
            assert!(
                reply.starts_with("ERR overloaded "),
                "rejection must be the typed overloaded error, got: {reply}"
            );
            rejected += 1;
        }
    }
    assert_eq!(accepted, 2, "exactly the capacity is admitted");
    assert_eq!(rejected, 8);

    // The client-visible STATS line and the admission counters agree
    // with what the client experienced, exactly.
    assert_eq!(
        c.call("STATS"),
        "OK depth=2 shed=0 rejected=8 dropped_capture=0"
    );
    let ac = server.engine().admission().clone();
    assert_eq!(ac.rejected_total(), rejected);
    assert_eq!(ac.shed_total(), 0);

    // After a drain, capacity is available again.
    let pump = c.call("PUMP");
    assert!(pump.starts_with("OK captured=2"), "{pump}");
    assert_eq!(c.call("INGEST s 100 100"), "OK staged");
    server.shutdown();
}

#[test]
fn reject_rolls_back_the_triggering_insert() {
    let mut server = server_with(1, OverloadPolicy::Reject);
    let engine = Arc::clone(server.engine());
    let mut c = Client::connect(server.tcp_addr());
    assert_eq!(c.call("CREATE TABLE t k:INT KEY k"), "OK");
    assert_eq!(c.call("CAPTURE t TRIGGER"), "OK t_changes");

    assert_eq!(c.call("INSERT t 1"), "OK inserted"); // fills capacity 1
    let reply = c.call("INSERT t 2");
    assert!(
        reply.starts_with("ERR overloaded "),
        "second insert must be rejected: {reply}"
    );

    // The rejected insert's row must NOT be in the table: the trigger
    // capture runs inside the write, so rejection rolled it back.
    let rows = engine
        .db()
        .select("t", &evdb::expr::parse("k >= 0").unwrap())
        .unwrap();
    assert_eq!(rows.len(), 1, "rejected write must be rolled back");
    assert_eq!(
        engine.admission().rejected_total(),
        1,
        "exactly one client-visible rejection"
    );
    server.shutdown();
}

#[test]
fn block_stalls_the_producer_socket_until_drained() {
    let mut server = server_with(1, OverloadPolicy::Block);
    let mut producer = Client::connect(server.tcp_addr());
    assert_eq!(producer.call("CREATE STREAM s v:INT"), "OK");

    // Three offers into capacity 1: the first stages and replies, the
    // second parks the connection's reader inside admission, the third
    // sits unread in socket buffers. No error, no shed — just silence.
    producer.send("INGEST s 1 1");
    producer.send("INGEST s 2 2");
    producer.send("INGEST s 3 3");
    assert_eq!(producer.recv(), "OK staged");
    assert_eq!(
        producer.try_recv(Duration::from_millis(400)),
        None,
        "producer must be stalled by backpressure, not answered"
    );

    // A second connection drains; each pump frees one slot, unblocking
    // the parked offer, until the producer has all three acks.
    let mut drainer = Client::connect(server.tcp_addr());
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut acks = 1;
    while acks < 3 {
        assert!(Instant::now() < deadline, "blocked producer never unblocked");
        let reply = drainer.call("PUMP");
        assert!(reply.starts_with("OK captured="), "{reply}");
        while let Some(frame) = producer.try_recv(Duration::from_millis(100)) {
            assert_eq!(frame, "OK staged");
            acks += 1;
        }
    }

    // Block never sheds or rejects: every offer was eventually admitted.
    let ac = server.engine().admission().clone();
    assert_eq!(ac.shed_total(), 0);
    assert_eq!(ac.rejected_total(), 0);
    server.shutdown();
}

/// A server with a background pump on a tick far longer than any
/// deadline below, parked by the time this returns.
fn served_with(capacity: usize, overload: OverloadPolicy) -> NetServer {
    let engine = Arc::new(
        EventServer::in_memory(ServerConfig {
            ingest_capacity: capacity,
            overload,
            ..Default::default()
        })
        .unwrap(),
    );
    let server = NetServer::start(
        engine,
        NetConfig {
            http_addr: None,
            pump_interval: Some(Duration::from_secs(60)),
            ..Default::default()
        },
    )
    .unwrap();
    let t0 = Instant::now();
    while counter(&server, "evdb_pump_cycles_total") == 0 {
        assert!(t0.elapsed() < Duration::from_secs(5), "pump never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(20));
    server
}

fn counter(server: &NetServer, name: &str) -> u64 {
    server.engine().registry().snapshot().counters[name]
}

/// The served quiet-stage case: a reader stages without waking the pump
/// (it means to run the cycle itself once its read is dispatched), so a
/// read that carries more requests than the buffer holds blocks *that
/// reader* on a buffer only it knows is full. It wakes the parked pump
/// before it waits; the acks arrive now, not at the tick.
#[test]
fn block_on_a_quietly_filled_buffer_wakes_the_parked_pump() {
    let mut server = served_with(1, OverloadPolicy::Block);
    let mut producer = Client::connect(server.tcp_addr());
    assert_eq!(producer.call("CREATE STREAM s v:INT"), "OK");

    // One write, so one read carries all three.
    let burst: Vec<u8> = (1..=3)
        .flat_map(|i| encode_frame_vec(format!("INGEST s {i} {i}").as_bytes()))
        .collect();
    let t0 = Instant::now();
    producer.stream.write_all(&burst).unwrap();
    for _ in 0..3 {
        assert_eq!(
            producer.try_recv(Duration::from_secs(5)).as_deref(),
            Some("OK staged"),
            "the blocked reader waited for the tick"
        );
    }
    assert!(t0.elapsed() < Duration::from_secs(5));
    assert_eq!(producer.call("PING"), "PONG"); // counts settled
    assert!(
        counter(&server, "evdb_pump_wakeups_total{cause=\"work\"}") >= 1,
        "the pump was never woken: the three requests did not share a read"
    );
    // Acknowledged means staged; whoever holds the gate evaluates.
    while server.engine().metrics().snapshot().events_processed < 3 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "an event waited for the tick"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let ac = server.engine().admission().clone();
    assert_eq!((ac.shed_total(), ac.rejected_total()), (0, 0));
    server.shutdown();
}

/// A trigger capture fires inside the inserting connection's write
/// transaction: no cycle may run there, so it wakes the pump as it
/// always did and the reader runs nothing itself.
#[test]
fn trigger_captured_insert_on_a_served_connection_only_wakes_the_pump() {
    let mut server = served_with(1024, OverloadPolicy::Block);
    let mut c = Client::connect(server.tcp_addr());
    assert_eq!(c.call("CREATE TABLE t k:INT KEY k"), "OK");
    assert_eq!(c.call("CAPTURE t TRIGGER"), "OK t_changes");
    assert_eq!(c.call("INSERT t 1"), "OK inserted");
    let t0 = Instant::now();
    while server.engine().metrics().snapshot().events_processed < 1 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "the captured insert waited for the tick"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(c.call("PING"), "PONG");
    assert_eq!(counter(&server, "evdb_pump_inline_cycles_total"), 0);
    assert!(counter(&server, "evdb_pump_wakeups_total{cause=\"work\"}") >= 1);
    server.shutdown();
}

/// One cycle may produce more rows for a subscriber than its session
/// buffer holds frames. The buffer bounds what a *peer* leaves unread,
/// not the size of a batch: a subscriber that keeps reading loses
/// nothing.
#[test]
fn a_batch_larger_than_the_session_buffer_sheds_nothing_for_a_live_reader() {
    const EVENTS: usize = 5_000; // default session_buffer: 1024 frames
    let mut server = server_with(1 << 20, OverloadPolicy::Block);
    let mut producer = Client::connect(server.tcp_addr());
    assert_eq!(producer.call("CREATE STREAM s v:INT"), "OK");
    assert_eq!(producer.call("REGISTER QUERY feed SELECT v FROM s"), "OK");
    let mut sink = Client::connect(server.tcp_addr());
    assert_eq!(sink.call("SUBSCRIBE feed"), "OK subscribed feed");
    for first in (0..EVENTS).step_by(100) {
        for i in first..first + 100 {
            producer.send(&format!("INGEST s {i} {i}"));
        }
        for _ in 0..100 {
            assert_eq!(producer.recv(), "OK staged");
        }
    }
    // No background pump: all of it is one cycle's batch.
    producer.send("PUMP");
    for i in 0..EVENTS {
        assert_eq!(sink.recv(), format!("UPDATE feed + {i}"));
    }
    assert_eq!(
        producer.recv(),
        format!("OK captured={EVENTS} derived={EVENTS} notified=0")
    );
    assert_eq!(server.metrics().updates_dropped.get(), 0);
    server.shutdown();
}

#[test]
fn shed_lowest_accounts_for_every_offer() {
    let mut server = server_with(3, OverloadPolicy::ShedLowest);
    let mut c = Client::connect(server.tcp_addr());
    assert_eq!(c.call("CREATE STREAM s v:INT"), "OK");

    // Every offer is acknowledged under ShedLowest — overflow evicts a
    // staged event instead of refusing the new one.
    let offered = 10u64;
    for i in 0..offered {
        assert_eq!(c.call(&format!("INGEST s {i} {i}")), "OK staged");
    }
    assert_eq!(
        c.call("STATS"),
        "OK depth=3 shed=7 rejected=0 dropped_capture=0"
    );

    // Drain and balance the books: offered == evaluated + shed, exactly
    // (the in-process invariant, observed over a real socket).
    let pump = c.call("PUMP");
    assert!(pump.starts_with("OK captured=3"), "{pump}");
    let ac = server.engine().admission().clone();
    assert_eq!(ac.shed_total(), 7);
    assert_eq!(ac.rejected_total(), 0);
    assert_eq!(offered, 3 + ac.shed_total());
    server.shutdown();
}
