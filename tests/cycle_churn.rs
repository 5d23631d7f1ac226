//! Registration churn beside every thread that runs cycles.
//!
//! A sequential background pump (1 ms tick), two stagers (`stage` +
//! `run_staged`) and a thread calling `pump()` evaluate one stream while
//! a control thread keeps registering: alert rules added and removed,
//! detectors with WHEN conditions, trigger captures on fresh side tables
//! (written to, then removed), continuous queries with subscribers, and
//! end-of-batch hooks. Every one of those takes a lock some cycle also
//! takes, so this is the test of the engine's lock order:
//!
//! * the run ends within its deadline (no deadlock);
//! * no thread panics;
//! * every staged event is evaluated exactly once (`events_processed`
//!   equals the events staged, plus the side-table changes that were
//!   drained before their capture went away);
//! * each key's rows reach a subscriber in arrival order.
//!
//! Timing is not asserted beyond the deadline; CI runs it in release
//! beside `pump_wakeup`.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use evdb::analytics::detector::UpdatePolicy;
use evdb::analytics::ThresholdModel;
use evdb::core::server::ServerConfig;
use evdb::core::{spawn_pump, CaptureMechanism, EventServer};
use evdb::types::{DataType, Record, Schema, TimestampMs, Value};

const STAGERS: i64 = 2;
const PER_STAGER: i64 = 3_000;
const KEYS_PER_STAGER: i64 = 4;
/// Queries, detectors and hooks only accumulate; past this many the
/// control thread stops adding them (rules and captures keep churning).
const ACCUMULATING: usize = 24;
const DEADLINE: Duration = Duration::from_secs(120);

/// What the subscriber saw: rows per key in order, and any inversion.
#[derive(Default)]
struct Seen {
    last: HashMap<i64, i64>,
    rows: u64,
    inversions: Vec<(i64, i64, i64)>,
}

struct Outcome {
    processed: u64,
    side_changes: u64,
    dropped_captures: u64,
    seen: Seen,
}

fn tick(k: i64, seq: i64) -> Record {
    Record::from_iter([Value::Int(k), Value::Int(seq), Value::Float((seq % 10) as f64 / 10.0)])
}

fn run() -> Outcome {
    let server = Arc::new(EventServer::in_memory(ServerConfig::default()).unwrap());
    server
        .create_stream(
            "ticks",
            Schema::of(&[("k", DataType::Int), ("seq", DataType::Int), ("v", DataType::Float)]),
        )
        .unwrap();
    server.register_cql("rows", "SELECT k, seq FROM ticks").unwrap();
    let seen = Arc::new(Mutex::new(Seen::default()));
    {
        let seen = Arc::clone(&seen);
        server
            .on_query_updates("rows", move |row, _| {
                let k = row.get(0).and_then(Value::as_int).unwrap();
                let seq = row.get(1).and_then(Value::as_int).unwrap();
                let mut seen = seen.lock().unwrap();
                seen.rows += 1;
                if let Some(prev) = seen.last.insert(k, seq) {
                    if prev >= seq {
                        seen.inversions.push((k, prev, seq));
                    }
                }
            })
            .unwrap();
    }

    let pump = spawn_pump(&server, Duration::from_millis(1));
    let staging_done = Arc::new(AtomicBool::new(false));

    let stagers: Vec<_> = (0..STAGERS)
        .map(|s| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                for seq in 0..PER_STAGER {
                    let k = s * 100 + seq % KEYS_PER_STAGER;
                    server.stage("ticks", TimestampMs(seq), tick(k, seq)).unwrap();
                    if seq % 8 == 7 {
                        server.run_staged();
                    }
                }
                server.run_staged();
            })
        })
        .collect();

    let pumper = {
        let (server, done) = (Arc::clone(&server), Arc::clone(&staging_done));
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                server.pump().unwrap();
            }
        })
    };

    let control = {
        let (server, done) = (Arc::clone(&server), Arc::clone(&staging_done));
        std::thread::spawn(move || {
            let side_schema = Schema::of(&[("id", DataType::Int), ("x", DataType::Int)]);
            let cond = evdb::expr::parse("v > 0.2").unwrap();
            let mut rules = VecDeque::new();
            let mut side_changes = 0u64;
            let mut i = 0usize;
            while !done.load(Ordering::Relaxed) {
                // Alert rules: up to three live, oldest removed first.
                let id = server
                    .add_alert_rule(&format!("r{i}"), "ticks", "v > 0.5", 1.0, Some("k"))
                    .unwrap();
                rules.push_back(id);
                if rules.len() > 3 {
                    let oldest = rules.pop_front().unwrap();
                    server.remove_alert_rule("ticks", oldest).unwrap();
                }
                // A trigger capture on a fresh side table, written to
                // and removed again: the change is either evaluated or
                // counted as a dropped capture.
                let table = format!("side{i}");
                server.db().create_table(&table, Arc::clone(&side_schema), "id").unwrap();
                let stream = server.capture_table(&table, CaptureMechanism::Trigger).unwrap();
                assert_eq!(stream, format!("{table}_changes"));
                server
                    .db()
                    .insert(&table, Record::from_iter([Value::Int(1), Value::Int(i as i64)]))
                    .unwrap();
                side_changes += 1;
                server.remove_capture(&stream).unwrap();
                if i < ACCUMULATING {
                    server
                        .add_detector_when(
                            &format!("d{i}"),
                            "ticks",
                            "v",
                            Some("k"),
                            Some(&cond),
                            UpdatePolicy::Always,
                            || Box::new(ThresholdModel::new(0.0, 0.8)),
                        )
                        .unwrap();
                    let query = format!("q{i}");
                    server
                        .register_cql(&query, "SELECT k, seq FROM ticks WHERE v > 0.5")
                        .unwrap();
                    server.on_query_updates(&query, |_, _| {}).unwrap();
                    server.on_batch_end(Arc::new(|| {}));
                }
                i += 1;
            }
            side_changes
        })
    };

    for stager in stagers {
        stager.join().expect("a stager panicked");
    }
    staging_done.store(true, Ordering::Relaxed);
    pumper.join().expect("the pump() thread panicked");
    let side_changes = control.join().expect("the control thread panicked");
    // The stop runs one last full cycle over whatever is still staged.
    pump.stop();
    server.pump().unwrap();

    let seen = std::mem::take(&mut *seen.lock().unwrap());
    Outcome {
        processed: server.metrics().snapshot().events_processed,
        side_changes,
        dropped_captures: server.admission().dropped_capture_total(),
        seen,
    }
}

#[test]
fn registration_churn_beside_every_cycle_runner_loses_and_reorders_nothing() {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(run()).unwrap());
    let outcome = match rx.recv_timeout(DEADLINE) {
        Ok(outcome) => outcome,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("no end within {DEADLINE:?}: deadlock"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("a thread of the run panicked"),
    };
    let staged = (STAGERS * PER_STAGER) as u64;
    assert_eq!(
        outcome.processed,
        staged + outcome.side_changes - outcome.dropped_captures,
        "evaluated != staged ({staged}) + side changes ({}) - dropped captures ({})",
        outcome.side_changes,
        outcome.dropped_captures
    );
    assert_eq!(outcome.seen.rows, staged, "the subscriber missed rows");
    assert!(
        outcome.seen.inversions.is_empty(),
        "(key, earlier seq, later seq) reached the subscriber out of order: {:?}",
        &outcome.seen.inversions[..outcome.seen.inversions.len().min(8)]
    );
}
