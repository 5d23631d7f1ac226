//! E11 — the background pump's throughput (DESIGN.md §7) on the two
//! workload shapes a partitioned pump would split:
//!
//! * **multi-stream** — 8 independent streams, each with a keyed alert
//!   rule, a windowed CQL query and a keyed detector;
//! * **keyed-hot-stream** — one stream whose keyed rule and keyed
//!   detector are scoped by its `sym` field (16 symbols), no CQ.
//!
//! Events are staged with `ingest_async` before the pump starts, so
//! the measurement covers drain + evaluation + delivery, not producer
//! cost. Every row records the detected core count.
//!
//! Evaluation runs one cycle at a time (DESIGN.md D7); the sharded
//! arms this table used to compare against are recorded, with why they
//! went, in EXPERIMENTS.md and DESIGN.md §7.

use std::sync::Arc;
use std::time::{Duration, Instant};

use evdb_analytics::detector::UpdatePolicy;
use evdb_analytics::ThresholdModel;
use evdb_core::server::ServerConfig;
use evdb_core::{spawn_pump, EventServer};
use evdb_types::{DataType, Record, Schema, SimClock, TimestampMs, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{Scale, Table};
use crate::fmt_rate;

fn sym(i: usize) -> String {
    format!("S{:02}", i % 16)
}

fn tick_schema() -> Arc<Schema> {
    Schema::of(&[("sym", DataType::Str), ("px", DataType::Float)])
}

/// Build the 8-stream workload server and stage `n` events.
fn multi_stream_server(n: usize, seed: u64) -> Arc<EventServer> {
    let server = Arc::new(
        EventServer::in_memory(ServerConfig {
            clock: SimClock::new(TimestampMs(0)),
            ..Default::default()
        })
        .unwrap(),
    );
    for s in 0..8 {
        let stream = format!("s{s}");
        server.create_stream(&stream, tick_schema()).unwrap();
        server
            .add_alert_rule(&format!("hot{s}"), &stream, "px > 95", 1.0, Some("sym"))
            .unwrap();
        server
            .register_cql(
                &format!("avg{s}"),
                &format!("SELECT sym, avg(px) AS apx FROM {stream} [RANGE 1 s] GROUP BY sym"),
            )
            .unwrap();
        server
            .add_detector(
                &format!("band{s}"),
                &stream,
                "px",
                Some("sym"),
                UpdatePolicy::Always,
                || Box::new(ThresholdModel::new(1.0, 98.0)),
            )
            .unwrap();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n {
        let stream = format!("s{}", rng.gen_range(0..8));
        server
            .ingest_async(
                &stream,
                TimestampMs(i as i64),
                Record::from_iter([
                    Value::from(sym(rng.gen_range(0..16))),
                    Value::Float(rng.gen_range(0.0..100.0)),
                ]),
            )
            .unwrap();
    }
    server
}

/// Build the keyed hot-stream workload server and stage `n` events.
fn keyed_stream_server(n: usize, seed: u64) -> Arc<EventServer> {
    let server = Arc::new(
        EventServer::in_memory(ServerConfig {
            clock: SimClock::new(TimestampMs(0)),
            ..Default::default()
        })
        .unwrap(),
    );
    server.create_stream("ticks", tick_schema()).unwrap();
    server
        .add_alert_rule("hot", "ticks", "px > 95", 1.0, Some("sym"))
        .unwrap();
    server
        .add_detector(
            "band",
            "ticks",
            "px",
            Some("sym"),
            UpdatePolicy::Always,
            || Box::new(ThresholdModel::new(1.0, 98.0)),
        )
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n {
        server
            .ingest_async(
                "ticks",
                TimestampMs(i as i64),
                Record::from_iter([
                    Value::from(sym(rng.gen_range(0..16))),
                    Value::Float(rng.gen_range(0.0..100.0)),
                ]),
            )
            .unwrap();
    }
    server
}

/// Run the background pump over a staged server until all `n` events
/// are evaluated and delivered and the pump has stopped; returns
/// events/s.
fn drive(server: &Arc<EventServer>, n: usize) -> f64 {
    let t0 = Instant::now();
    let handle = spawn_pump(server, Duration::from_millis(1));
    while (server.metrics().snapshot().events_processed as usize) < n {
        assert!(
            t0.elapsed() < Duration::from_secs(300),
            "pump stalled at {} of {n}",
            server.metrics().snapshot().events_processed
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    // `events_processed` counts a batch as it enters evaluation; the stop
    // joins the pump once that cycle has evaluated and delivered.
    handle.stop();
    n as f64 / t0.elapsed().as_secs_f64()
}

/// Run E11.
pub fn run(scale: Scale) -> Table {
    let n = scale.pick(4_000, 60_000);
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut table = Table::new(
        "E11: background pump throughput (multi-stream / keyed hot stream)",
        &["workload", "mode", "events/s", "cores"],
    );
    let rates = [
        ("multi-stream", drive(&multi_stream_server(n, 111), n)),
        ("keyed-hot-stream", drive(&keyed_stream_server(n, 222), n)),
    ];
    for (label, rate) in rates {
        table.row(vec![label.into(), "seq".into(), fmt_rate(rate), cores.to_string()]);
    }
    table.note(format!("{n} events staged per row; host has {cores} core(s)"));
    table.note("the deleted sharded pump's last recorded rows are in EXPERIMENTS.md (E11)");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_completes_and_shards_engage() {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let t = run(Scale::Quick);
        // One `seq` row per workload, each with a rate and the host's
        // core count.
        assert_eq!(t.rows.len(), 2);
        for (row, label) in t.rows.iter().zip(["multi-stream", "keyed-hot-stream"]) {
            assert_eq!((row[0].as_str(), row[1].as_str()), (label, "seq"));
            assert!(!row[2].is_empty() && row[2] != "-", "{row:?}");
            assert_eq!(row[3].parse::<usize>().unwrap(), cores);
        }
    }
}
