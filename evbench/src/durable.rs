//! `durable_pipeline` — served, file-backed: the database-technology path
//! of the paper's title. Each `INSERT` over TCP is a transaction (WAL
//! append + fsync), a trigger captures the change, the pump appends it to
//! the historical store, enqueues one alert in ten on a durable queue (a
//! second committer, so group commit is exercised) and pushes a derived
//! row to the sink. Storage does most of the work, then the queue.
//!
//! After the write phases the same store is read back — point queries
//! over history, a full replay, a queue drain — and the engine is dropped
//! and reopened, so a format change that helps one side cannot silently
//! cost the other.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use evdb_core::history::HistoryConfig;
use evdb_core::server::ServerConfig;
use evdb_core::{CaptureMechanism, EventServer};
use evdb_server::{NetConfig, NetServer};
use evdb_types::{DataType, Schema, Value};

use crate::client::{Reader, Writer};
use crate::gen::{self, sym_name, Order};
use crate::run::{Params, Report, Stopwatch};
use crate::spec;
use crate::stats::{percentile, sorted};
use crate::wire::{connect_untimed, drive_served, expect_reply};

pub const STREAM: &str = "orders_changes";
pub const QUERY: &str = "SELECT oid, sym, qty * price AS notional FROM orders_changes";
const ALERT_QUEUE: &str = "alerts";
const GROUP: &str = "bench";
const HISTORY_QUERIES: u64 = 200;
const DEQUEUE_BATCH: usize = 256;

pub fn orders_schema() -> Arc<Schema> {
    Schema::of(&[
        ("oid", DataType::Int),
        ("sym", DataType::Str),
        ("qty", DataType::Int),
        ("price", DataType::Float),
    ])
}

pub fn insert_line(o: &Order) -> String {
    format!(
        "INSERT orders {},{},{},{:.2}",
        o.oid,
        sym_name(o.sym),
        o.qty,
        o.price
    )
}

/// Parse `UPDATE notional + <oid>,<sym>,<notional>`.
pub fn parse_update(line: &str) -> Option<(u64, (String, f64))> {
    let row = line.strip_prefix("UPDATE notional + ")?;
    let mut parts = row.split(',');
    let oid = parts.next()?.parse().ok()?;
    let sym = parts.next()?.to_string();
    let notional = parts.next()?.parse().ok()?;
    parts.next().is_none().then_some((oid, (sym, notional)))
}

/// Scratch directory for the database files, inside the current
/// directory (the benchmark writes nowhere else).
pub fn scratch_dir(tag: &str) -> PathBuf {
    Path::new(".evbench_tmp").join(format!("{}-{tag}", std::process::id()))
}

pub fn remove_scratch(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    // Leave no empty parent behind when this was the only run using it.
    let _ = std::fs::remove_dir(".evbench_tmp");
}

/// Engine on `dir` with the table, its trigger capture and history: the
/// part of set-up a restart repeats.
pub fn open_engine(dir: &Path) -> Arc<EventServer> {
    let engine =
        Arc::new(EventServer::open(dir.join("db"), ServerConfig::default()).expect("engine opens"));
    if engine.db().table("orders").is_err() {
        engine
            .db()
            .create_table("orders", orders_schema(), "oid")
            .expect("table");
    }
    let stream = engine
        .capture_table("orders", CaptureMechanism::Trigger)
        .expect("capture");
    assert_eq!(stream, STREAM);
    engine
        .enable_history(dir.join("history"), HistoryConfig::compacted())
        .expect("history");
    engine
}

pub struct Rig {
    engine: Arc<EventServer>,
    server: NetServer,
    producer: (Writer, Reader),
    sink: (Writer, Reader),
}

fn setup(dir: &Path, watch: &mut Stopwatch) -> Rig {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("scratch dir");
    let engine = open_engine(dir);
    engine
        .add_alert_rule(
            "big",
            STREAM,
            &format!("qty >= {}", gen::ALERT_QTY),
            2.0,
            None,
        )
        .expect("rule");
    engine
        .persist_notifications(ALERT_QUEUE)
        .expect("alert queue");
    engine
        .queues()
        .subscribe(ALERT_QUEUE, GROUP)
        .expect("consumer group");
    let server = NetServer::start(
        Arc::clone(&engine),
        NetConfig {
            session_buffer: spec::SESSION_BUFFER,
            ..NetConfig::default()
        },
    )
    .expect("server");
    let mut producer = connect_untimed(server.tcp_addr(), watch);
    let mut sink = connect_untimed(server.tcp_addr(), watch);
    expect_reply(
        &mut producer,
        &format!("REGISTER QUERY notional {QUERY}"),
        "OK",
    );
    expect_reply(&mut sink, "SUBSCRIBE notional", "OK subscribed notional");
    Rig {
        engine,
        server,
        producer,
        sink,
    }
}

/// Total size of the regular files under `dir`.
fn disk_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => disk_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Wait until connection threads have let go of the engine, then drop
/// it, so its files are closed before the directory is reopened.
fn release(engine: Arc<EventServer>) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Arc::strong_count(&engine) > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    Arc::strong_count(&engine) == 1
}

pub fn run(params: &Params) -> Report {
    let workload = spec::workload("durable_pipeline").expect("declared");
    let seed = params.seed;
    let mut report = Report::new();
    let dir = scratch_dir("durable");
    let mut watch = Stopwatch::start();
    let Rig {
        engine,
        mut server,
        producer,
        sink,
    } = setup(&dir, &mut watch);

    let served = drive_served(
        &mut report,
        params,
        workload,
        &server,
        producer,
        sink.1,
        watch,
        "OK inserted",
        move |oid| insert_line(&gen::order(seed, oid)),
        move |oid| {
            let o = gen::order(seed, oid);
            (sym_name(o.sym), o.notional())
        },
        parse_update,
    );
    let (inserts, acked) = (served.sent, served.acked);
    let mut failed = served.failed;

    // Read side 1: selective queries over the history the writes built.
    let mut query_ms = Vec::new();
    for i in 0..HISTORY_QUERIES {
        let oid = i * inserts / HISTORY_QUERIES;
        let t = Instant::now();
        let hits = engine.query_history(STREAM, &format!("oid = {oid}"));
        query_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let want = gen::order(seed, oid);
        let ok = hits.is_ok_and(|events| {
            events.len() == 1
                && events[0].payload.get(2) == Some(&Value::Int(oid as i64))
                && events[0].payload.get(4) == Some(&Value::Int(want.qty))
                && events[0].payload.get(5) == Some(&Value::Float(want.price))
        });
        failed += !ok as u64;
    }
    report.set(
        "ops.history_query_p50_ms",
        percentile(&sorted(query_ms), 0.5),
    );
    report
        .samples
        .insert("ops.history_query_p50_ms", HISTORY_QUERIES as usize);

    // Read side 2: replay everything, in arrival order.
    let t = Instant::now();
    let replayed = engine.replay(STREAM, 0, u64::MAX).unwrap_or_default();
    report.set(
        "ops.replay_evps",
        replayed.len() as f64 / t.elapsed().as_secs_f64(),
    );
    let in_order = replayed
        .iter()
        .enumerate()
        .all(|(i, e)| e.payload.get(2) == Some(&Value::Int(i as i64)));
    report.check(replayed.len() as u64 == inserts && in_order, || {
        format!(
            "replay returned {} events for {inserts} inserts (in order: {in_order})",
            replayed.len()
        )
    });
    drop(replayed);

    // Read side 3: drain the alert queue; every alerting order is there once.
    let expected_alerts = (0..inserts)
        .filter(|&oid| gen::order(seed, oid).alerts())
        .count() as u64;
    let (mut drained, mut batches) = (0u64, 0u64);
    let t = Instant::now();
    loop {
        let batch = engine
            .queues()
            .dequeue(ALERT_QUEUE, GROUP, DEQUEUE_BATCH)
            .unwrap_or_default();
        if batch.is_empty() {
            break;
        }
        for delivery in &batch {
            failed += engine.queues().ack(delivery).is_err() as u64;
        }
        drained += batch.len() as u64;
        batches += 1;
    }
    let drain_s = t.elapsed().as_secs_f64();
    report.set("queue.drain_msgps", drained as f64 / drain_s);
    report.set(
        "queue.dequeue_ack_us",
        drain_s * 1e6 / batches.max(1) as f64,
    );
    report.check(drained == expected_alerts, || {
        format!("{drained} alerts drained, {expected_alerts} orders alert")
    });

    crate::probe::engine_counts(&mut report, &engine, None);

    // Restart: drop the engine, reopen the same directory, count what survived.
    drop(sink.0);
    server.shutdown();
    drop(server);
    let released = release(engine);
    report.check(released, || {
        "connection threads still held the engine 5 s after shutdown".into()
    });
    report.set(
        "ops.disk_bytes_per_event",
        disk_bytes(&dir) as f64 / inserts.max(1) as f64,
    );
    let t = Instant::now();
    let reopened = open_engine(&dir);
    let table_rows = reopened.db().table("orders").map_or(0, |t| t.len()) as u64;
    let history_rows = reopened
        .history()
        .and_then(|h| {
            h.store_or_recover(STREAM, &reopened.runtime().stream_schema(STREAM).ok()?)
                .ok()
        })
        .map_or(0, |store| store.total_rows());
    report.set("ops.recover_s", t.elapsed().as_secs_f64());
    report.check(table_rows == acked && history_rows == acked, || {
        format!("after reopen: {table_rows} table rows and {history_rows} history rows for {acked} acknowledged inserts")
    });
    drop(reopened);
    remove_scratch(&dir);

    report.attempted = inserts + HISTORY_QUERIES + drained;
    report.failed = failed;
    if params.traced {
        crate::probe::durable(&mut report, seed);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notional_reference_matches_a_hand_checked_line() {
        let o = Order {
            oid: 12,
            sym: 7,
            qty: 3,
            price: 100.5,
        };
        assert_eq!(insert_line(&o), "INSERT orders 12,S07,3,100.50");
        assert_eq!(
            parse_update("UPDATE notional + 12,S07,301.5"),
            Some((12, ("S07".into(), o.notional())))
        );
        assert_eq!(parse_update("UPDATE notional - 12,S07,301.5"), None);
        assert_eq!(parse_update("OK inserted"), None);
        assert!(
            Order {
                qty: 91,
                ..o.clone()
            }
            .alerts()
                && !Order { qty: 90, ..o }.alerts()
        );
    }
}
