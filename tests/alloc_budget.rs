//! Allocation budget of the rule path: what evaluating and delivering an
//! event costs in heap allocations, counted rather than timed so that it
//! holds on any machine.
//!
//! Three alert rules all hit every event. A hit's key and title are its
//! rule's shared strings, its rule id a slot in the matcher scratch's
//! flat buffer, and the event's body is rendered once, so past warm-up
//! an event may allocate its body and one body copy per further hit:
//! `hits + 1` in all, with slack for the batch vectors and amortized
//! growth.
//!
//! A second budget covers the whole by-hand path: `ingest_async` stages
//! each event (id minted, stream name shared) and `pump()` drains,
//! evaluates and delivers them on the same thread.
//!
//! A third covers the continuous-query runtime: what one row of a
//! projection costs beyond routing the event. A fourth drives a dozen
//! continuous queries — windows sharing a pane table, filters, a count
//! window, a speculative copy — from `ingest_async` through `pump()`.
//!
//! A counting global allocator counts only on the thread that armed it,
//! so the harness's own threads do not disturb the figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use evdb::core::metrics::StageBatch;
use evdb::core::server::{EvalScratch, ServerConfig};
use evdb::core::EventServer;
use evdb::cq::aggregate::AggMode;
use evdb::cq::{compile_query, StreamRuntime};
use evdb::expr::BatchScratch;
use evdb::types::{DataType, Event, EventId, Record, Schema, SimClock, TimestampMs, Value};

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if ARMED.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.with(Cell::get)
}

const RULES: u64 = 3;
const EVENTS: u64 = 1_000;
const BATCH: usize = 100;

/// A server with stream `ticks` and three rules that every event of
/// [`tick`] hits; returns it with the stream's schema.
fn three_rule_server() -> (EventServer, Arc<Schema>) {
    let server = EventServer::in_memory(ServerConfig {
        clock: SimClock::new(TimestampMs(0)),
        ..Default::default()
    })
    .unwrap();
    let schema = Schema::of(&[
        ("sym", DataType::Str),
        ("px", DataType::Float),
        ("qty", DataType::Int),
    ]);
    server.create_stream("ticks", Arc::clone(&schema)).unwrap();
    server
        .add_alert_rule("hot", "ticks", "px > 10", 1.0, None)
        .unwrap();
    server
        .add_alert_rule("big", "ticks", "qty >= 1", 2.0, None)
        .unwrap();
    server
        .add_alert_rule("ibm", "ticks", "sym = 'IBM'", 3.0, None)
        .unwrap();
    (server, schema)
}

/// The payload of the `i`-th event.
fn tick(i: u64) -> Record {
    Record::from_iter([
        Value::from("IBM"),
        Value::Float(100.0 + (i % 7) as f64),
        Value::Int(1 + (i % 5) as i64),
    ])
}

#[test]
fn a_rule_hit_allocates_within_budget() {
    let (server, schema) = three_rule_server();

    let source: Arc<str> = Arc::from("ticks");
    let events = |from: u64, n: u64| -> Vec<Event> {
        (from..from + n)
            .map(|i| {
                Event::new(
                    EventId(i),
                    Arc::clone(&source),
                    TimestampMs(i as i64),
                    tick(i),
                    Arc::clone(&schema),
                )
            })
            .collect()
    };
    let (mut stage, mut scratch) = (StageBatch::default(), EvalScratch::default());
    let mut run = |mut batch: Vec<Event>| -> u64 {
        let mut delivered = 0;
        let n = allocations(|| {
            let mut notes = Vec::new();
            let (_, errors) = server.evaluate_events(
                &mut batch,
                server.now(),
                &mut stage,
                &mut scratch,
                &mut notes,
            );
            assert_eq!(errors, 0);
            delivered = server.deliver_batch(notes);
        });
        assert_eq!(
            delivered,
            RULES * batch.len() as u64,
            "every rule hits every event"
        );
        n
    };

    run(events(0, BATCH as u64));
    let mut total = 0;
    let measured = events(BATCH as u64, EVENTS);
    for chunk in measured.chunks(BATCH) {
        total += run(chunk.to_vec());
    }
    let per_event = total as f64 / EVENTS as f64;
    eprintln!("{per_event:.2} allocations per event ({RULES} hits)");
    assert!(
        per_event <= (RULES + 1) as f64,
        "{per_event:.2} allocations per event, budget {}",
        RULES + 1
    );
}

/// Per event, on top of the rule path above: staging it through
/// `ingest_async` and draining it in `pump()`. The payload is built
/// outside the counted span; what a staged event adds is its `Event`
/// and its share of the batch vectors, not its stream name. Measured at
/// 3.38 per event.
const PATH_BUDGET: f64 = 3.4;

#[test]
fn ingest_to_delivery_allocates_within_budget() {
    let (server, _) = three_rule_server();
    let run = |from: u64| -> u64 {
        let payloads: Vec<Record> = (from..from + BATCH as u64).map(tick).collect();
        let mut notified = 0;
        let n = allocations(|| {
            for (i, payload) in (from..).zip(payloads) {
                server
                    .ingest_async("ticks", TimestampMs(i as i64), payload)
                    .unwrap();
            }
            notified = server.pump().unwrap().notified;
        });
        assert_eq!(
            notified,
            RULES * BATCH as u64,
            "every rule hits every event"
        );
        n
    };

    run(0);
    let total: u64 = (1..=EVENTS / BATCH as u64)
        .map(|b| run(b * BATCH as u64))
        .sum();
    let per_event = total as f64 / EVENTS as f64;
    eprintln!("{per_event:.2} allocations per event, ingest_async to delivery ({RULES} hits)");
    assert!(
        per_event <= PATH_BUDGET,
        "{per_event:.2} allocations per event, budget {PATH_BUDGET}"
    );
}

/// What one derived row of a projection costs the continuous-query
/// runtime: its value vector, and its event's slot in the caller's
/// result vector. The pipeline's stage buffers are reused across pushes
/// and its last stage appends straight to that slot.
const ROW_BUDGET: f64 = 2.25;

#[test]
fn a_projected_row_allocates_within_budget() {
    let schema = Schema::of(&[
        ("seq", DataType::Int),
        ("sym", DataType::Str),
        ("price", DataType::Float),
    ]);
    let source: Arc<str> = Arc::from("ticks");
    let batch = |from: u64| -> Vec<Event> {
        (from..from + 32)
            .map(|i| {
                let payload = Record::from_iter([
                    Value::Int(i as i64),
                    Value::from("IBM"),
                    Value::Float(100.0),
                ]);
                Event::new(EventId(i), Arc::clone(&source), TimestampMs(i as i64), payload, Arc::clone(&schema))
            })
            .collect()
    };
    // Allocations per event through `push_events`, with and without the
    // query, batches of 32 built outside the counted span.
    let per_event = |query: bool| -> f64 {
        let rt = StreamRuntime::new(0);
        rt.create_stream("ticks", Arc::clone(&schema)).unwrap();
        if query {
            let q = compile_query("SELECT seq, sym, price FROM ticks", &schema, AggMode::Incremental).unwrap();
            rt.register_query("wire", "ticks", q).unwrap();
        }
        let (mut scratch, mut out) = (BatchScratch::new(), Vec::new());
        let mut total = 0;
        for b in 0..=EVENTS / 32 {
            let events = batch(b * 32);
            let n = allocations(|| rt.push_events(&events, &mut scratch, &mut out));
            if b > 0 {
                total += n; // the first batch warms the buffers up
            }
        }
        total as f64 / (EVENTS / 32 * 32) as f64
    };
    let (bare, projected) = (per_event(false), per_event(true));
    let per_row = projected - bare;
    eprintln!("{per_row:.2} allocations per projected row ({projected:.2} with the query, {bare:.2} without)");
    assert!(per_row <= ROW_BUDGET, "{per_row:.2} allocations per row, budget {ROW_BUDGET}");
}

/// The continuous-query set of the `cq_embedded` benchmark workload:
/// eight grouped sliding aggregates at overlaps 1×, 10× and 30×, two
/// filtered projections, a count window and a speculative aggregate.
const CQ_QUERIES: [&str; 12] = [
    "SELECT sym, window_end, count() AS n, sum(volume) AS vol FROM ticks [RANGE 500 ms] GROUP BY sym",
    "SELECT sym, window_end, avg(price) AS mean FROM ticks [RANGE 500 ms] GROUP BY sym",
    "SELECT sym, window_end, max(price) AS hi FROM ticks [RANGE 500 ms] GROUP BY sym",
    "SELECT sym, window_end, count() AS n, sum(volume) AS vol FROM ticks [RANGE 5 s SLIDE 500 ms] GROUP BY sym",
    "SELECT sym, window_end, avg(price) AS mean FROM ticks [RANGE 5 s SLIDE 500 ms] GROUP BY sym",
    "SELECT sym, window_end, max(price) AS hi FROM ticks [RANGE 5 s SLIDE 500 ms] GROUP BY sym",
    "SELECT sym, window_end, count() AS n FROM ticks [RANGE 15 s SLIDE 500 ms] GROUP BY sym",
    "SELECT sym, window_end, max(price) AS hi FROM ticks [RANGE 15 s SLIDE 500 ms] GROUP BY sym",
    "SELECT seq, sym, price FROM ticks WHERE price > 185.0",
    "SELECT seq, sym, volume FROM ticks WHERE volume <= 100",
    "SELECT count() AS n, max(seq) AS last, sum(volume) AS vol FROM ticks [ROWS 100]",
    "SELECT sym, window_end, max(price) AS hi FROM ticks [RANGE 5 s SLIDE 500 ms] GROUP BY sym EMIT SPECULATIVE",
];

/// Allocations per event of the query set above, past warm-up. Ticks
/// run 20 to the millisecond over 64 symbols, one in twenty 100 ms late
/// inside a 200 ms lateness bound, so windows close every 10 000 events
/// and the late ticks revise the speculative query's rows. Measured at
/// 1.14 per event (0.32 rows per event, most of them the filters'
/// projections: a row's values and its event's result vector).
const CQ_BUDGET: f64 = 1.25;

#[test]
fn a_continuous_query_set_allocates_within_budget() {
    let server = EventServer::in_memory(ServerConfig {
        clock: SimClock::new(TimestampMs(0)),
        lateness_ms: 200,
        ..Default::default()
    })
    .unwrap();
    let schema = Schema::of(&[
        ("seq", DataType::Int),
        ("sym", DataType::Str),
        ("price", DataType::Float),
        ("volume", DataType::Int),
    ]);
    server.create_stream("ticks", schema).unwrap();
    let rows = Arc::new(std::sync::atomic::AtomicU64::new(0));
    for (i, cql) in CQ_QUERIES.iter().enumerate() {
        let name = format!("q{i}");
        server.register_cql(&name, cql).unwrap();
        let rows = Arc::clone(&rows);
        server
            .on_query_updates(&name, move |_, _| {
                rows.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            })
            .unwrap();
    }
    const PER_MS: u64 = 20;
    let tick = |i: u64| -> (TimestampMs, Record) {
        let late = if i % 20 == 7 { 100 } else { 0 };
        let ts = (i / PER_MS) as i64 - late;
        let payload = Record::from_iter([
            Value::Int(i as i64),
            Value::from(format!("S{:02}", i.wrapping_mul(2_654_435_761) % 64).as_str()),
            Value::Float(100.0 + (i.wrapping_mul(7_919) % 10_000) as f64 / 100.0),
            Value::Int(1 + (i.wrapping_mul(104_729) % 1_000) as i64),
        ]);
        (TimestampMs(ts), payload)
    };
    let run = |from: u64, n: u64| -> u64 {
        let mut ticks = (from..from + n).map(tick).collect::<Vec<_>>().into_iter();
        allocations(|| {
            while ticks.len() > 0 {
                for (ts, payload) in ticks.by_ref().take(256) {
                    server.ingest_async("ticks", ts, payload).unwrap();
                }
                server.pump().unwrap();
            }
        })
    };
    // Warm-up: every window shape opens, closes and prunes once.
    const WARM: u64 = 400_000;
    run(0, WARM);
    let before = rows.load(std::sync::atomic::Ordering::Relaxed);
    const MEASURED: u64 = 100_000;
    let per_event = run(WARM, MEASURED) as f64 / MEASURED as f64;
    let per_row = (rows.load(std::sync::atomic::Ordering::Relaxed) - before) as f64 / MEASURED as f64;
    eprintln!("{per_event:.2} allocations per event ({per_row:.2} rows per event), {} queries", CQ_QUERIES.len());
    assert!(per_row > 0.2, "the queries emit: {per_row:.2} rows per event");
    assert!(per_event <= CQ_BUDGET, "{per_event:.2} allocations per event, budget {CQ_BUDGET}");
}
