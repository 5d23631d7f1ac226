//! `rules_embedded` — embedded, no socket. 10 000 seeded alert rules over
//! 64 symbols, ticks through `ingest_async` and a background pump,
//! results at `on_notification`. The rule index and the predicate VM do
//! most of the work; the server and storage crates are bypassed.
//!
//! Throughout both phases a control thread adds and removes 20 rules per
//! second, so an index that matches faster but updates slower shows in the
//! same run (the paper's "large" versus "frequently changing" rule sets).
//! It is its own thread, asleep between updates, so that an update waiting
//! on the matcher's lock delays the update and not the load schedule.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use evdb_core::pump::{spawn_pump, PumpHandle};
use evdb_core::EventServer;
use evdb_types::TimestampMs;

use crate::awake::KeepAwake;
use crate::embedded::{self, tick_record, EmbeddedTarget};
use crate::gen::{self, RuleOracle, RuleSpec};
use crate::load::{Clock, PhaseStamps};
use crate::run::{self, Params, Report, Stopwatch};
use crate::spec;
use crate::stats::{percentile, sorted};

/// One rule add/remove pair every 50 ms.
const CHURN_EVERY: Duration = Duration::from_millis(50);

/// Add and remove one never-matching rule every [`CHURN_EVERY`] until
/// `stop`; returns each pair's latency (ms) and how many pairs errored.
fn churn(engine: &EventServer, stop: &AtomicBool) -> (Vec<f64>, u64) {
    let (mut update_ms, mut errors) = (Vec::new(), 0);
    while !stop.load(Ordering::Relaxed) {
        let predicate = gen::churn_rule(update_ms.len() as u64).predicate();
        let t = Instant::now();
        let pair = engine
            .add_alert_rule("churn", "ticks", &predicate, 1.0, None)
            .and_then(|id| engine.remove_alert_rule("ticks", id));
        update_ms.push(t.elapsed().as_secs_f64() * 1e3);
        errors += pair.is_err() as u64;
        // The delivered-notification log is the embedder's to drain.
        engine.notifications().drain_delivered();
        std::thread::sleep(CHURN_EVERY);
    }
    (update_ms, errors)
}

/// What the notification handler records, on the pump thread.
pub struct Sink {
    clock: Clock,
    stamps: PhaseStamps,
    /// Notifications seen per event sequence number.
    counts: Mutex<Vec<u16>>,
}

impl Sink {
    fn on_notification(&self, seq: u64) {
        // The first notification of an event is its result; later ones of
        // the same event leave the stamp alone.
        self.stamps.stamp_result(seq, self.clock.now_ns());
        let mut counts = self.counts.lock().expect("sink lock");
        if counts.len() <= seq as usize {
            counts.resize(seq as usize + 1, 0);
        }
        counts[seq as usize] = counts[seq as usize].saturating_add(1);
    }
}

pub struct Rig {
    engine: Arc<EventServer>,
    pump: PumpHandle,
    sink: Arc<Sink>,
}

pub fn register_rules(engine: &EventServer, rules: &[RuleSpec]) {
    for (i, rule) in rules.iter().enumerate() {
        engine
            .add_alert_rule(&format!("r{i}"), "ticks", &rule.predicate(), 1.0, None)
            .expect("rule registers");
    }
}

fn setup(clock: Clock, rules: &[RuleSpec], stamps: PhaseStamps) -> Rig {
    let engine = embedded::engine(0);
    register_rules(&engine, rules);
    let sink = Arc::new(Sink {
        clock,
        stamps,
        counts: Mutex::new(Vec::new()),
    });
    let handler_sink = Arc::clone(&sink);
    // The event's timestamp is its sequence number, so a notification
    // names the event that caused it.
    engine.on_notification(Arc::new(move |n| {
        handler_sink.on_notification(n.timestamp.0 as u64)
    }));
    let pump = spawn_pump(&engine, Duration::from_millis(1));
    Rig { engine, pump, sink }
}

pub fn run(params: &Params) -> Report {
    let workload = spec::workload("rules_embedded").expect("declared");
    let rate = workload.paced_rate;
    let seed = params.seed;
    let mut report = Report::new();
    let rules = gen::rule_set(seed);
    let awake = KeepAwake::start();
    let clock = Clock::start();
    let watch = Stopwatch::start();
    let Rig { engine, pump, sink } = setup(clock, &rules, params.stamps(rate));

    let stop_churn = AtomicBool::new(false);
    let (driven, refused, (update_ms, update_errors)) = std::thread::scope(|scope| {
        let control = scope.spawn(|| churn(&engine, &stop_churn));
        let mut target = EmbeddedTarget {
            engine: &engine,
            event: Box::new(|seq| (TimestampMs(seq as i64), tick_record(&gen::tick(seed, seq)))),
            refused: 0,
        };
        let driven = run::drive(
            &clock,
            &mut target,
            params,
            workload,
            &sink.stamps,
            &mut report,
            watch,
        );
        stop_churn.store(true, Ordering::Relaxed);
        (
            driven,
            target.refused,
            control.join().expect("control thread"),
        )
    });
    let cycles = pump.cycles();
    let pump_errors = pump.errors();
    pump.stop();
    awake.stop(&mut report, "the whole run");

    // Every event's notification count against the generator's arithmetic.
    let oracle = RuleOracle::new(&rules);
    let counts = sink.counts.lock().expect("sink lock");
    let expected: Vec<u32> = (0..driven.sent)
        .map(|seq| oracle.count(&gen::tick(seed, seq)))
        .collect();
    let wrong = expected
        .iter()
        .enumerate()
        .filter(|(seq, &want)| counts.get(*seq).copied().unwrap_or(0) as u32 != want)
        .count() as u64;
    report.check(counts.len() as u64 <= driven.sent, || {
        "a notification named an event never sent".into()
    });

    let first = sink.stamps.paced.first_seq() as usize;
    let late_acks = run::summarize_acks(&mut report, &sink.stamps.paced, driven.lags_ms, rate);
    let late_results =
        run::summarize_results(&mut report, &sink.stamps.paced, |i| expected[first + i] > 0);
    report.set("throughput_evps", driven.throughput_evps);
    report.set(
        "ops.rule_update_p50_ms",
        percentile(&sorted(update_ms.clone()), 0.5),
    );
    report
        .samples
        .insert("ops.rule_update_p50_ms", update_ms.len());
    report.attempted = driven.sent + update_ms.len() as u64;
    report.failed = refused + wrong + update_errors + late_acks + late_results;
    report.check(driven.drained, || {
        "events were still unevaluated 5 s after a phase ended".into()
    });
    report.check(wrong == 0, || {
        format!("{wrong} events notified a different number of times than the rules say")
    });
    report.check(pump_errors == 0, || {
        format!("{pump_errors} pump cycles errored")
    });

    crate::probe::engine_counts(&mut report, &engine, Some(cycles));
    run::client_spans(&mut report.trace, &sink.stamps);
    if params.traced {
        crate::probe::rules(&mut report, seed, &rules);
    }
    report
}
