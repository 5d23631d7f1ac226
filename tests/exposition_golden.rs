//! Golden test for the Prometheus-style text exposition: a fixed
//! workload on a simulated clock must render exactly the metric names,
//! `# TYPE` lines and line order recorded in
//! `tests/fixtures/exposition.golden`. Sample *values* are normalized
//! to `V` (wall-clock-derived numbers vary run to run); everything
//! else — which metrics exist, their kinds, their ordering — is pinned.
//!
//! Regenerate after intentional changes with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test exposition_golden
//! ```

use std::sync::Arc;

use evdb::core::metrics::Registry;
use evdb::core::server::ServerConfig;
use evdb::core::{CaptureMechanism, EventServer};
use evdb::net::hub::{Hub, ServerMetrics};
use evdb::obs::normalize_exposition;
use evdb::types::{DataType, Record, Schema, SimClock, TimestampMs, Value};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/exposition.golden"
);

/// The fixed workload: capture + one rule + one CQ, three inserts, one
/// pump, on a simulated clock.
fn render_fixed_workload() -> String {
    let clock = SimClock::new(TimestampMs(0));
    let server = EventServer::in_memory(ServerConfig {
        clock: clock.clone(),
        registry: Arc::new(Registry::new()),
        ..Default::default()
    })
    .unwrap();
    // Bind the network layer's counters/gauges too, so the golden pins
    // the full exposition a deployed `evdb-server` serves on /metrics.
    let hub = Hub::new();
    let metrics = Arc::new(ServerMetrics::bind(server.registry(), &hub));
    hub.set_metrics(metrics);
    server
        .db()
        .create_table(
            "orders",
            Schema::of(&[("oid", DataType::Int), ("amount", DataType::Float)]),
            "oid",
        )
        .unwrap();
    let stream = server
        .capture_table("orders", CaptureMechanism::Trigger)
        .unwrap();
    server
        .add_alert_rule("big", &stream, "amount > 10", 2.0, None)
        .unwrap();
    server
        .register_cql(
            "volume",
            &format!("SELECT count() AS n FROM {stream} [ROWS 2]"),
        )
        .unwrap();
    for oid in 0..3 {
        server
            .db()
            .insert(
                "orders",
                Record::from_iter([Value::Int(oid), Value::Float(100.0 * oid as f64)]),
            )
            .unwrap();
    }
    clock.advance(5);
    server.pump().unwrap();
    server.registry().render()
}

#[test]
fn exposition_matches_golden() {
    let normalized = normalize_exposition(&render_fixed_workload());
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &normalized).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN)
        .expect("missing tests/fixtures/exposition.golden — run with UPDATE_GOLDEN=1");
    assert_eq!(
        normalized, expected,
        "text exposition drifted from the golden fixture; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn exposition_covers_every_layer() {
    let text = render_fixed_workload();
    // One spot check per layer registered into the unified registry.
    for name in [
        "evdb_stage_capture_events_total",   // stage tracing
        "evdb_stage_deliver_latency_ms_sum", // stage histograms
        "evdb_storage_wal_append_ms_count",  // storage
        "evdb_rules_candidates_total",       // rules
        "evdb_cq_panes_total",               // continuous queries
        "evdb_core_events_processed",        // engine bridge gauges
        "evdb_notify_delivered",             // notification center
        "evdb_ingest_depth",                 // admission control (D10)
        "evdb_ingest_shed_total",            // no-silent-caps counters
        "evdb_ingest_rejected_total",
        "evdb_queue_purged_inflight_total",  // retention-race no-ops
        "evdb_cq_retractions_total",         // out-of-order deltas (D12)
        "evdb_cq_pane_reopens_total",
        "evdb_cq_late_admitted_total",
        "evdb_cq_late_dropped_total",
        "evdb_cq_dup_dropped_total",         // replay dedup window
        "evdb_cq_dedup_evicted_total",       // …and what it evicted
        "evdb_server_connections_total",     // network frontends (D13)
        "evdb_server_updates_dropped_total", // fan-out shed accounting
        "evdb_server_subscriptions_active",  // live subscription gauge
    ] {
        assert!(text.contains(name), "exposition missing {name}:\n{text}");
    }
}
