//! The hub's materialized view, end to end over real sockets:
//!
//! * it is a bounded ring — past `VIEW_ROWS` rows `GET` returns exactly
//!   the newest `VIEW_ROWS` in arrival order and says how many it
//!   evicted (`OK <n> rows evicted=<m>`, `evdb_server_view_evicted_total`),
//!   and `GET /query/:name` serves the same rows;
//! * below the cap it is the compaction of the delta stream: a
//!   subscriber's `UPDATE ±` frames folded through `DeltaLog` equal the
//!   `GET` rows as a multiset, for a speculative windowed query whose
//!   late events force retractions.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use evdb::core::server::ServerConfig;
use evdb::core::EventServer;
use evdb::cq::DeltaLog;
use evdb::net::frame::{encode_frame_vec, FrameDecoder};
use evdb::net::hub::VIEW_ROWS;
use evdb::net::{NetConfig, NetServer};
use evdb::types::{SimClock, TimestampMs};

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

    /// Send every command in one write (a pipelined burst).
    fn send_all<S: AsRef<str>>(&mut self, cmds: &[S]) {
        let mut bytes = Vec::new();
        for cmd in cmds {
            bytes.extend_from_slice(&encode_frame_vec(cmd.as_ref().as_bytes()));
        }
        self.stream.write_all(&bytes).unwrap();
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
        self.send_all(&[cmd]);
        self.recv()
    }

    /// Stage `ingests` in one burst, then `PUMP`; every `INGEST` must be
    /// acknowledged. Returns the cycle's derived-event count.
    fn ingest_and_pump(&mut self, ingests: &[String]) -> usize {
        let mut burst = ingests.to_vec();
        burst.push("PUMP".into());
        self.send_all(&burst);
        for _ in ingests {
            assert_eq!(self.recv(), "OK staged");
        }
        let pumped = self.recv();
        let derived = pumped
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("derived="))
            .unwrap_or_else(|| panic!("unexpected PUMP reply: {pumped}"));
        derived.parse().unwrap()
    }

    /// `GET query`: the rows, then the closing `OK …` line.
    fn get(&mut self, query: &str) -> (Vec<String>, String) {
        self.send_all(&[format!("GET {query}")]);
        let mut rows = Vec::new();
        loop {
            let frame = self.recv();
            match frame.strip_prefix("ROW ") {
                Some(row) => rows.push(row.to_string()),
                None => return (rows, frame),
            }
        }
    }
}

/// Simulated clock, explicit `PUMP`s (no background pump), and the
/// lateness the speculative query needs to admit late events.
fn start_server() -> NetServer {
    let engine = Arc::new(
        EventServer::in_memory(ServerConfig {
            clock: SimClock::new(TimestampMs(0)),
            lateness_ms: 2_000,
            ..Default::default()
        })
        .unwrap(),
    );
    NetServer::start(
        engine,
        NetConfig {
            pump_interval: None,
            ..Default::default()
        },
    )
    .unwrap()
}

/// One HTTP/1.1 `GET` over a fresh connection (`Connection: close`, so
/// EOF ends the body). Returns the body of a `200`.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("malformed HTTP response");
    assert!(head.starts_with("HTTP/1.1 200"), "GET {path}: {head}");
    body.to_string()
}

/// The value of an unlabelled sample in a `/metrics` exposition.
fn sample(exposition: &str, name: &str) -> f64 {
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("{name} missing from /metrics"))
        .parse()
        .unwrap()
}

#[test]
fn view_past_its_cap_serves_the_newest_rows_and_counts_the_evicted() {
    const EXTRA: usize = 100;
    let mut server = start_server();
    let mut c = Client::connect(server.tcp_addr());
    assert_eq!(c.call("CREATE STREAM s v:INT"), "OK");
    assert_eq!(c.call("REGISTER QUERY q SELECT v FROM s"), "OK");

    let total = VIEW_ROWS + EXTRA;
    let ingests: Vec<String> = (0..total).map(|i| format!("INGEST s {i} {i}")).collect();
    let mut derived = 0;
    for chunk in ingests.chunks(1_000) {
        derived += c.ingest_and_pump(chunk);
    }
    assert_eq!(derived, total, "a projection derives one row per event");

    let newest: Vec<String> = (EXTRA..total).map(|i| i.to_string()).collect();
    let (rows, done) = c.get("q");
    assert_eq!(done, format!("OK {VIEW_ROWS} rows evicted={EXTRA}"));
    assert!(
        rows == newest,
        "GET must return the newest rows in arrival order"
    );

    let http = server.http_addr().unwrap();
    let body = http_get(http, "/query/q");
    assert!(
        body.lines().eq(newest.iter().map(String::as_str)),
        "/query/q disagrees with GET"
    );

    let metrics = http_get(http, "/metrics");
    assert_eq!(
        sample(&metrics, "evdb_server_view_evicted_total"),
        EXTRA as f64
    );
    assert_eq!(sample(&metrics, "evdb_server_view_rows"), VIEW_ROWS as f64);
    server.shutdown();
}

/// E16's mild disorder (10 % of events up to a quarter of the lateness
/// late), deterministic.
fn mild_disorder(n: usize) -> Vec<(i64, usize)> {
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut ticks: Vec<(i64, i64, usize)> = (0..n)
        .map(|i| {
            let ts = i as i64 * 10;
            let delay = if next() % 1_000 < 100 {
                (next() % 500) as i64
            } else {
                0
            };
            (ts + delay, ts, i)
        })
        .collect();
    ticks.sort();
    ticks.into_iter().map(|(_, ts, i)| (ts, i)).collect()
}

#[test]
fn view_equals_the_compacted_update_stream() {
    let mut server = start_server();
    let addr = server.tcp_addr();
    let mut producer = Client::connect(addr);
    let mut subscriber = Client::connect(addr);
    assert_eq!(producer.call("CREATE STREAM ticks sym:STR,x:FLOAT"), "OK");
    assert_eq!(
        producer.call(
            "REGISTER QUERY w SELECT sym, window_end, count() AS n, sum(x) AS s \
             FROM ticks [RANGE 1000 ms] GROUP BY sym EMIT SPECULATIVE"
        ),
        "OK"
    );
    assert_eq!(subscriber.call("SUBSCRIBE w"), "OK subscribed w");

    let ingests: Vec<String> = mild_disorder(3_000)
        .into_iter()
        .map(|(ts, i)| format!("INGEST ticks {ts} s{},{}", i % 3, i % 100))
        .collect();
    let mut log = DeltaLog::new();
    for chunk in ingests.chunks(200) {
        for _ in 0..producer.ingest_and_pump(chunk) {
            let frame = subscriber.recv();
            let (sign, row) = frame
                .strip_prefix("UPDATE w ")
                .and_then(|rest| rest.split_at_checked(2))
                .unwrap_or_else(|| panic!("not an update: {frame}"));
            log.observe_keyed(row.to_string(), sign == "- ");
        }
    }
    assert!(log.retracted() > 0, "late events must force retractions");

    let (mut rows, done) = producer.get("w");
    assert!(rows.len() < VIEW_ROWS, "the comparison holds below the cap");
    assert_eq!(done, format!("OK {} rows", rows.len()));
    rows.sort();
    assert_eq!(
        rows,
        log.rows(),
        "GET must equal the compacted update stream"
    );
    assert_eq!(server.metrics().updates_dropped.get(), 0);
    server.shutdown();
}
