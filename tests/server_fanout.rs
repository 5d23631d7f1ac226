//! Concurrent fan-out over real sockets: N producer connections and M
//! subscriber connections against one server with a background pump.
//! Every subscriber must observe the complete update stream for its
//! query in the same order as every other subscriber (delivery is
//! sequenced by the pump thread), with no duplicates and no losses;
//! a subscriber that disconnects mid-stream must be torn down cleanly
//! without wedging or corrupting the remaining deliveries.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use evdb::core::server::ServerConfig;
use evdb::core::EventServer;
use evdb::net::frame::{encode_frame_vec, FrameDecoder};
use evdb::net::{NetConfig, NetServer};
use evdb::types::{SimClock, TimestampMs};

const PRODUCERS: usize = 4;
const EVENTS_PER_PRODUCER: i64 = 50;
const TOTAL: usize = PRODUCERS * EVENTS_PER_PRODUCER as usize;

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

    fn recv(&mut self) -> String {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Some(frame) = self.decoder.next_frame() {
                return String::from_utf8(frame.unwrap()).unwrap();
            }
            assert!(Instant::now() < deadline, "timed out waiting for a frame");
            let mut buf = [0u8; 16 * 1024];
            match self.stream.read(&mut buf) {
                Ok(0) => panic!("server closed the connection unexpectedly"),
                Ok(n) => self.decoder.push(&buf[..n]),
                Err(_) => {}
            }
        }
    }

    fn call(&mut self, cmd: &str) -> String {
        self.send(cmd);
        self.recv()
    }
}

fn start_server() -> NetServer {
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
            http_addr: None,
            pump_interval: Some(Duration::from_millis(1)),
            session_buffer: 2 * TOTAL, // no shedding in this test
            ..Default::default()
        },
    )
    .unwrap()
}

#[test]
fn fanout_is_ordered_complete_and_teardown_safe() {
    fanout(8);
}

/// The same with a subscriber list long enough that one cycle's
/// end-of-batch flush is dozens of sends on one thread.
#[test]
fn fanout_to_64_subscribers_is_identical_and_drops_nothing() {
    fanout(64);
}

fn fanout(subscribers: usize) {
    let mut server = start_server();
    let addr = server.tcp_addr();

    // Stateless projection: one UPDATE per ingested event, so delivery
    // counts are exact and values identify events.
    let mut admin = Client::connect(addr);
    assert_eq!(admin.call("CREATE STREAM s v:INT"), "OK");
    assert_eq!(admin.call("REGISTER QUERY feed SELECT v FROM s"), "OK");

    // All subscribers attach before any event flows.
    let mut subs: Vec<Client> = (0..subscribers)
        .map(|_| {
            let mut c = Client::connect(addr);
            assert_eq!(c.call("SUBSCRIBE feed"), "OK subscribed feed");
            c
        })
        .collect();
    // One extra subscriber that will vanish mid-stream.
    let mut doomed = Client::connect(addr);
    assert_eq!(doomed.call("SUBSCRIBE feed"), "OK subscribed feed");

    // Concurrent producers, each over its own connection. Event values
    // are globally unique: producer p emits p*1000+k.
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                for k in 0..EVENTS_PER_PRODUCER {
                    let v = (p as i64) * 1_000 + k;
                    assert_eq!(c.call(&format!("INGEST s {v} {v}")), "OK staged");
                    if p == 0 && k == EVENTS_PER_PRODUCER / 2 {
                        // Mid-stream, the doomed subscriber's socket dies
                        // (simulated by the main thread; see below). The
                        // producer just keeps producing.
                    }
                }
            })
        })
        .collect();

    // Kill the doomed subscriber while the stream is in flight.
    std::thread::sleep(Duration::from_millis(10));
    drop(doomed);

    for p in producers {
        p.join().unwrap();
    }

    // Drain every surviving subscriber to exactly TOTAL updates.
    let mut sequences: Vec<Vec<String>> = Vec::new();
    for sub in &mut subs {
        let mut seq = Vec::with_capacity(TOTAL);
        while seq.len() < TOTAL {
            let frame = sub.recv();
            assert!(
                frame.starts_with("UPDATE feed + "),
                "subscribers receive only insert deltas here, got: {frame}"
            );
            seq.push(frame);
        }
        sequences.push(seq);
    }

    // Completeness: each subscriber saw every produced value once.
    let mut expected: Vec<String> = (0..PRODUCERS as i64)
        .flat_map(|p| (0..EVENTS_PER_PRODUCER).map(move |k| format!("UPDATE feed + {}", p * 1_000 + k)))
        .collect();
    expected.sort();
    for seq in &sequences {
        let mut got = seq.clone();
        got.sort();
        assert_eq!(got, expected, "no update may be lost or duplicated");
    }

    // Order: every subscriber observed the identical global sequence.
    for seq in &sequences[1..] {
        assert_eq!(
            seq, &sequences[0],
            "all subscribers must see the same per-query order"
        );
    }

    // Teardown: the dead subscriber was pruned; the survivors remain.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.hub().active_subscriptions() != subscribers {
        assert!(
            Instant::now() < deadline,
            "dead subscriber not pruned: {} subscriptions",
            server.hub().active_subscriptions()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Nothing was shed for the survivors (buffers were sized for the
    // full stream), so delivered counts are exact.
    assert_eq!(server.metrics().updates_dropped.get(), 0);
    assert_eq!(
        server.engine().admission().rejected_total(),
        0,
        "default Block policy never rejects"
    );
    server.shutdown();
}
