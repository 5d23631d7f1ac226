//! Supply chain & logistics (one of §2.1's motivating domains): depot
//! scan events flow over a lossy fabric to headquarters, where a
//! continuous query computes per-route delay statistics, a CASE
//! expression classifies severity, and a Top-K operator keeps the
//! worst-routes digest — VIRT at the query layer.
//!
//! ```text
//! cargo run --example logistics
//! ```

use std::sync::Arc;

use evdb::cq::extra::TopKOp;
use evdb::cq::op::{Operator, Pipeline, ProjectOp};
use evdb::cq::StreamRuntime;
use evdb_dist::{Fabric, LinkConfig};
use evdb::expr::parse;
use evdb::queue::QueueConfig;
use evdb::types::{Clock, DataType, Record, Schema, SimClock, TimestampMs, Value};

fn main() -> evdb::types::Result<()> {
    let clock = SimClock::new(TimestampMs(0));

    // ---- fabric: three depots feeding HQ over flaky links -------------
    let mut fabric = Fabric::new(
        clock.clone(),
        LinkConfig {
            latency_ms: 30,
            jitter_ms: 20,
            loss: 0.15,
            ..Default::default()
        },
        2026,
    );
    let scan_schema = Schema::of(&[
        ("route", DataType::Str),
        ("shipment", DataType::Int),
        ("delay_h", DataType::Float),
    ]);
    for name in ["depot_a", "depot_b", "depot_c", "hq"] {
        let node = fabric.add_node(name)?;
        node.queues().create_queue(
            "scans",
            Arc::clone(&scan_schema),
            QueueConfig::default()
                .visibility_timeout(400)
                .max_attempts(100),
        )?;
    }
    fabric.node("hq")?.queues().subscribe("scans", "analytics")?;
    for depot in ["depot_a", "depot_b", "depot_c"] {
        fabric.connect(depot, "scans", "hq", "scans")?;
    }

    // ---- depots scan shipments -----------------------------------------
    let mut seed = 20_260_706u64;
    let mut rand = move || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (seed >> 33) as f64 / (1u64 << 31) as f64
    };
    let routes = ["R1", "R2", "R3", "R4", "R5"];
    let n_per_depot = 400;
    for (d, depot) in ["depot_a", "depot_b", "depot_c"].iter().enumerate() {
        for i in 0..n_per_depot {
            let r = &routes[(i + d) % routes.len()];
            // R3 is systematically congested.
            let delay = if *r == "R3" {
                6.0 + rand() * 6.0
            } else {
                rand() * 4.0
            };
            fabric.node(depot)?.queues().enqueue(
                "scans",
                Record::from_iter([
                    Value::from(*r),
                    Value::Int((d * n_per_depot + i) as i64),
                    Value::Float((delay * 10.0_f64).round() / 10.0),
                ]),
                depot,
            )?;
        }
    }

    // Drive the fabric until every scan reaches HQ.
    let c2 = clock.clone();
    let idle = fabric.run_until_idle(50_000, move || {
        c2.advance(40);
    })?;
    assert!(idle, "fabric failed to drain");
    let (sent, dropped, _) = fabric.network_stats();
    println!("fabric: packets sent={sent} dropped={dropped} (lossy links, nothing lost)");

    // ---- HQ analytics over the consolidated stream ---------------------
    let rt = StreamRuntime::new(0);
    rt.create_stream("scans", Arc::clone(&scan_schema))?;

    // CQL: per-route mean delay per 100-scan window, with a CASE
    // severity label computed in the projection.
    rt.register_query(
        "route-health",
        "scans",
        evdb::cq::compile_query(
            "SELECT route, avg(delay_h) AS mean_delay, \
                    CASE WHEN avg(delay_h) > 6 THEN 'critical' \
                         WHEN avg(delay_h) > 3 THEN 'degraded' \
                         ELSE 'ok' END AS severity \
             FROM scans [ROWS 100] GROUP BY route",
            &scan_schema,
            evdb::cq::aggregate::AggMode::Incremental,
        )?,
    )?;

    // Top-3 slowest shipments digest over a trailing 10-minute window,
    // projected to a compact record.
    let topk = TopKOp::new(&scan_schema, "delay_h", 3, 600_000)?;
    let topk_schema = topk.output_schema();
    let digest = ProjectOp::new(
        vec![
            parse("rank").unwrap().bind(&topk_schema)?,
            parse("route").unwrap().bind(&topk_schema)?,
            parse("delay_h").unwrap().bind(&topk_schema)?,
        ],
        Schema::of(&[
            ("rank", DataType::Int),
            ("route", DataType::Str),
            ("delay_h", DataType::Float),
        ]),
    );
    rt.register_query(
        "worst-shipments",
        "scans",
        Pipeline::new(vec![Box::new(topk), Box::new(digest)]),
    )?;

    // Feed HQ's queue into the runtime.
    let hq = fabric.node("hq")?;
    let mut health_reports = Vec::new();
    loop {
        let ds = hq.queues().dequeue("scans", "analytics", 64)?;
        if ds.is_empty() {
            break;
        }
        for d in ds {
            let out = rt.push("scans", d.message.enqueued_at, d.message.payload.clone())?;
            health_reports.extend(out);
            hq.queues().ack(&d)?;
        }
    }
    // Flush the Top-K digest at end of day.
    let digest_rows = rt.flush("scans", clock.now())?;

    // `health_reports` interleaves both queries' outputs (the Top-K
    // digest re-emits on every watermark); split them by schema.
    let health_rows: Vec<_> = health_reports
        .iter()
        .filter(|e| e.schema.index_of("severity").is_some())
        .collect();
    println!("\nroute health (last windows):");
    for ev in health_rows.iter().rev().take(5).rev() {
        println!("  {}", ev.payload);
    }
    println!("\nworst shipments (top 3 by delay):");
    for ev in &digest_rows {
        println!("  {}", ev.payload);
    }

    // The congested route must be flagged and dominate the digest.
    let r3_critical = health_rows.iter().any(|e| {
        e.get("route") == Some(&Value::from("R3"))
            && e.get("severity") == Some(&Value::from("critical"))
    });
    assert!(r3_critical, "R3 congestion must be classified critical");
    assert!(digest_rows
        .iter()
        .all(|e| e.get("route") == Some(&Value::from("R3"))));
    assert_eq!(
        rt.stats().0,
        (3 * n_per_depot) as u64,
        "every scan from every depot reached analytics exactly once"
    );
    println!("\nall {} scans consolidated; R3 flagged critical ✓", 3 * n_per_depot);
    Ok(())
}
