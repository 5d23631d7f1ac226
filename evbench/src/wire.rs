//! `wire_passthrough` — served, in-memory. One stateless query over a
//! tick stream: the producer pipelines `INGEST` over TCP, the sink
//! `SUBSCRIBE`s on a second connection and must see exactly one `UPDATE`
//! per event, in order. The server crate does most of the work (frame
//! decode, record parse, session reply, hub fan-out, frame write, thread
//! wake-ups); rules, window state, storage and queues do nothing.
//!
//! Three load-generator threads: the pacing producer, and one blocking
//! reader per connection (acknowledgements, results).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use evdb_core::server::ServerConfig;
use evdb_core::EventServer;
use evdb_server::{NetConfig, NetServer};

use crate::client::{self, Reader, Writer};
use crate::gen::{self, sym_name};
use crate::load::{Clock, PhaseStamps, Target};
use crate::run::{self, Params, Report, Stopwatch};
use crate::spec::{self, WINDOW};

pub const STREAM_SPEC: &str = "seq:INT,sym:STR,price:FLOAT,volume:INT";
pub const QUERY: &str = "SELECT seq, sym, price FROM ticks";

/// The `INGEST` frame for tick `seq`.
pub fn ingest_line(seed: u64, seq: u64, rate: u64) -> String {
    let t = gen::tick(seed, seq);
    format!(
        "INGEST ticks {} {},{},{:.2},{}",
        gen::slot_ts(seq, rate),
        t.seq,
        sym_name(t.sym),
        t.price,
        t.volume
    )
}

/// What the sink must read for tick `seq`: the reference for the
/// projection, computed from the generated input alone.
pub fn expected_update(seed: u64, seq: u64) -> (u64, String, f64) {
    let t = gen::tick(seed, seq);
    (t.seq, sym_name(t.sym), t.price)
}

/// Parse `UPDATE feed + <seq>,<sym>,<price>`.
pub fn parse_update(line: &str) -> Option<(u64, &str, f64)> {
    let row = line.strip_prefix("UPDATE feed + ")?;
    let mut parts = row.split(',');
    let seq = parts.next()?.parse().ok()?;
    let sym = parts.next()?;
    let price = parts.next()?.parse().ok()?;
    parts.next().is_none().then_some((seq, sym, price))
}

/// State the three load-generator threads share.
pub struct Shared {
    pub clock: Clock,
    pub stamps: PhaseStamps,
    /// Results observed, in order.
    pub completed: AtomicU64,
    pub acked: AtomicU64,
    /// Wrong, duplicated, out-of-order or refused.
    pub failed: AtomicU64,
    pub stop: AtomicBool,
    /// The producer thread, parked while its window is full.
    producer: std::thread::Thread,
}

impl Shared {
    fn new(clock: Clock, stamps: PhaseStamps) -> Arc<Shared> {
        Arc::new(Shared {
            clock,
            stamps,
            completed: AtomicU64::new(0),
            acked: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            producer: std::thread::current(),
        })
    }

    fn fail(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Reader of the producer's connection: the i-th reply acknowledges the
/// i-th request.
pub fn spawn_ack_reader(
    shared: Arc<Shared>,
    mut reader: Reader,
    ok_reply: &'static str,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut next = 0u64;
        while !shared.stop.load(Ordering::Relaxed) {
            let open = reader.read_lines(|line| {
                // A wrong reply, or a second reply to one request.
                if line != ok_reply || !shared.stamps.stamp_ack(next, shared.clock.now_ns()) {
                    shared.fail();
                }
                next += 1;
                shared.acked.store(next, Ordering::Release);
            });
            if !matches!(open, Ok(true)) {
                break;
            }
        }
    })
}

/// Reader of the sink's connection: every line must be the next event's
/// update, correct in every field.
pub fn spawn_sink<E: PartialEq>(
    shared: Arc<Shared>,
    mut reader: Reader,
    expected: impl Fn(u64) -> E + Send + 'static,
    parse: impl Fn(&str) -> Option<(u64, E)> + Send + 'static,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut next = 0u64;
        while !shared.stop.load(Ordering::Relaxed) {
            let open = reader.read_lines(|line| {
                match parse(line) {
                    Some((seq, row)) if seq == next && row == expected(seq) => {
                        if !shared.stamps.stamp_result(seq, shared.clock.now_ns()) {
                            shared.fail();
                        }
                        next += 1;
                    }
                    Some((seq, _)) => {
                        // Wrong value, gap, duplicate or reordering:
                        // count it and resynchronise on what arrived.
                        shared.fail();
                        next = next.max(seq + 1);
                    }
                    None => shared.fail(),
                }
                shared.completed.store(next, Ordering::Release);
            });
            shared.producer.unpark();
            if !matches!(open, Ok(true)) {
                break;
            }
        }
    })
}

/// The producer side of a served workload.
pub struct ServedTarget {
    pub shared: Arc<Shared>,
    pub writer: Writer,
    pub line: Box<dyn Fn(u64) -> String>,
    pending: u32,
}

impl ServedTarget {
    pub fn new(
        shared: Arc<Shared>,
        writer: Writer,
        line: impl Fn(u64) -> String + 'static,
    ) -> ServedTarget {
        ServedTarget {
            shared,
            writer,
            line: Box::new(line),
            pending: 0,
        }
    }
}

impl Target for ServedTarget {
    fn send(&mut self, seq: u64) {
        self.writer.frame(&(self.line)(seq));
        self.pending += 1;
        // One write per 32 requests when pipelining flat out.
        if self.pending >= 32 {
            self.flush();
        }
    }

    fn flush(&mut self) {
        self.pending = 0;
        if self.writer.flush().is_err() {
            self.shared.fail();
        }
    }

    fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Acquire)
    }

    fn window(&self) -> Option<u64> {
        Some(WINDOW)
    }

    fn wait_for_window(&mut self) {
        std::thread::park_timeout(std::time::Duration::from_millis(1));
    }

    fn acks_inline(&self) -> bool {
        false
    }
}

pub struct Rig {
    pub engine: Arc<EventServer>,
    pub server: NetServer,
    pub producer: (Writer, Reader),
    pub sink: (Writer, Reader),
}

pub fn expect_reply(conn: &mut (Writer, Reader), request: &str, reply: &str) {
    let got = client::call(&mut conn.0, &mut conn.1, request).expect("setup request");
    assert_eq!(got, reply, "setup request {request:?}");
}

/// Connect, then wait out the server's accept poll with the stopwatch
/// paused: a `PING` answered means the session thread is up.
pub fn connect_untimed(addr: SocketAddr, watch: &mut Stopwatch) -> (Writer, Reader) {
    watch.pause();
    let mut conn = client::connect(addr).expect("connect");
    expect_reply(&mut conn, "PING", "PONG");
    watch.resume();
    conn
}

/// Start the server with its defaults and connect both ends.
fn setup(watch: &mut Stopwatch) -> Rig {
    let engine = Arc::new(EventServer::in_memory(ServerConfig::default()).expect("engine"));
    let server = NetServer::start(
        Arc::clone(&engine),
        NetConfig {
            session_buffer: spec::SESSION_BUFFER,
            ..NetConfig::default()
        },
    )
    .expect("server");
    let addr: SocketAddr = server.tcp_addr();
    let mut producer = connect_untimed(addr, watch);
    let mut sink = connect_untimed(addr, watch);
    expect_reply(
        &mut producer,
        &format!("CREATE STREAM ticks {STREAM_SPEC}"),
        "OK",
    );
    expect_reply(&mut producer, &format!("REGISTER QUERY feed {QUERY}"), "OK");
    expect_reply(&mut sink, "SUBSCRIBE feed", "OK subscribed feed");
    Rig {
        engine,
        server,
        producer,
        sink,
    }
}

/// What the shared phases of a served workload produced.
pub struct Served {
    /// Requests sent; each must have one acknowledgement and one update.
    pub sent: u64,
    pub acked: u64,
    /// Failures so far: wrong, missing, duplicated or late replies.
    pub failed: u64,
}

/// The phases of a served workload, from the first request to the last
/// verified update: reader threads, warm-up, `saturate`, `paced`, and the
/// metrics and checks both served workloads share. `line` renders request
/// `seq`, `expected` and `parse` give the sink its reference and its
/// reading of an `UPDATE` frame.
#[allow(clippy::too_many_arguments)]
pub fn drive_served<E: PartialEq>(
    report: &mut Report,
    params: &Params,
    workload: &spec::Workload,
    server: &NetServer,
    producer: (Writer, Reader),
    sink: Reader,
    setup: Stopwatch,
    ok_reply: &'static str,
    line: impl Fn(u64) -> String + 'static,
    expected: impl Fn(u64) -> E + Send + 'static,
    parse: impl Fn(&str) -> Option<(u64, E)> + Send + 'static,
) -> Served {
    let rate = workload.paced_rate;
    let clock = Clock::start();
    let shared = Shared::new(clock, params.stamps(rate));
    let ack_reader = spawn_ack_reader(Arc::clone(&shared), producer.1, ok_reply);
    let sink_reader = spawn_sink(Arc::clone(&shared), sink, expected, parse);
    let mut target = ServedTarget::new(Arc::clone(&shared), producer.0, line);
    let driven = run::drive(
        &clock,
        &mut target,
        params,
        workload,
        &shared.stamps,
        report,
        setup,
    );
    shared.stop.store(true, Ordering::Relaxed);
    ack_reader.join().expect("ack reader");
    sink_reader.join().expect("sink reader");

    let paced = &shared.stamps.paced;
    let late_acks = run::summarize_acks(report, paced, driven.lags_ms, rate);
    let late_results = run::summarize_results(report, paced, |_| true);
    report.set("throughput_evps", driven.throughput_evps);
    let sent = driven.sent;
    let acked = shared.acked.load(Ordering::Acquire);
    let completed = shared.completed.load(Ordering::Acquire);
    report.check(driven.drained, || {
        "results were still missing 5 s after a phase ended".into()
    });
    report.check(acked == sent, || {
        format!("{acked} acknowledgements for {sent} requests")
    });
    report.check(completed == sent, || {
        format!("{completed} updates for {sent} requests")
    });

    let m = server.metrics();
    report.set("server.frames_rx", m.frames_rx.get() as f64);
    report.set("server.frames_tx", m.frames_tx.get() as f64);
    report.set("server.updates_delivered", m.updates_delivered.get() as f64);
    report.set("server.updates_dropped", m.updates_dropped.get() as f64);
    report.check(m.updates_dropped.get() == 0, || {
        "the hub shed updates to the sink".into()
    });
    run::client_spans(&mut report.trace, &shared.stamps);
    Served {
        sent,
        acked,
        failed: shared.failed.load(Ordering::Relaxed) + late_acks + late_results,
    }
}

pub fn run(params: &Params) -> Report {
    let workload = spec::workload("wire_passthrough").expect("declared");
    let rate = workload.paced_rate;
    let seed = params.seed;
    let mut report = Report::new();
    let mut watch = Stopwatch::start();
    let rig = setup(&mut watch);
    let Rig {
        engine,
        mut server,
        producer,
        sink,
    } = rig;

    let served = drive_served(
        &mut report,
        params,
        workload,
        &server,
        producer,
        sink.1,
        watch,
        "OK staged",
        move |seq| ingest_line(seed, seq, rate),
        move |seq| {
            let (_, sym, price) = expected_update(seed, seq);
            (sym, price)
        },
        |line| parse_update(line).map(|(seq, sym, price)| (seq, (sym.to_string(), price))),
    );
    report.attempted = served.sent;
    report.failed = served.failed;
    crate::probe::engine_counts(&mut report, &engine, None);
    drop(sink.0);
    server.shutdown();
    if params.traced {
        crate::probe::wire(&mut report, seed, rate);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_reference_matches_a_hand_checked_line() {
        // The projection drops `volume`; prices print the way the engine
        // renders floats (a whole number keeps one decimal).
        assert_eq!(
            parse_update("UPDATE feed + 17,S05,150.0"),
            Some((17, "S05", 150.0))
        );
        assert_eq!(
            parse_update("UPDATE feed + 17,S05,123.45"),
            Some((17, "S05", 123.45))
        );
        assert_eq!(
            parse_update("UPDATE feed - 17,S05,123.45"),
            None,
            "a retraction is not a result"
        );
        assert_eq!(parse_update("UPDATE feed + 17,S05,123.45,9"), None);
        assert_eq!(parse_update("OK staged"), None);

        let line = ingest_line(3, 41, 1_000);
        let t = gen::tick(3, 41);
        assert_eq!(
            line,
            format!(
                "INGEST ticks {} 41,{},{:.2},{}",
                gen::TS_BASE + 41,
                sym_name(t.sym),
                t.price,
                t.volume
            )
        );
        // The text form of the price parses back to the generated value.
        let sent: f64 = line.split(',').nth(2).unwrap().parse().unwrap();
        assert_eq!((41, sym_name(t.sym), sent), expected_update(3, 41));
    }
}
