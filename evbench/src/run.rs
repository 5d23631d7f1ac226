//! One run of one workload: the phase sequence every workload shares, and
//! the report it fills in.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use crate::load::{self, Clock, PhaseStamps, Phases, RssMark, Stamps, Target};
use crate::spec::Workload;
use crate::stats::{self, median};
use crate::trace::Trace;

#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    /// Keep client-side spans, rerun `saturate` with them on, then probe
    /// the layers. Phases run at half length.
    pub traced: bool,
}

impl Params {
    /// Stamps for a `paced` phase at `rate` (and the traced rerun).
    pub fn stamps(&self, rate: u64) -> PhaseStamps {
        let paced_events = (self.phases().paced_ns as f64 / 1e9 * rate as f64) as usize;
        PhaseStamps::new(paced_events, self.traced)
    }

    pub fn phases(&self) -> Phases {
        Phases::of(if self.traced {
            self.seconds / 2.0
        } else {
            self.seconds
        })
    }
}

/// Everything one run measured. `values` holds end-to-end and per-layer
/// metrics alike, keyed by their names in `spec`.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Sample counts behind the latency metrics.
    pub samples: BTreeMap<&'static str, usize>,
    /// Correctness findings and caveats, for the stderr table.
    pub notes: Vec<String>,
    pub trace: Trace,
}

impl Report {
    /// Correct until a check says otherwise.
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Record a failed correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("FAILED CHECK: {}", what()));
        }
    }
}

/// Times `setup_s`: started before the engine is built, stopped by
/// [`drive`] when the first results are in. A set-up can pause it while it
/// waits on something that is luck, not work (the server's accept loop
/// polls every 5 ms).
pub struct Stopwatch {
    total: Duration,
    running: Option<Instant>,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            total: Duration::ZERO,
            running: Some(Instant::now()),
        }
    }

    pub fn pause(&mut self) {
        if let Some(since) = self.running.take() {
            self.total += since.elapsed();
        }
    }

    pub fn resume(&mut self) {
        self.running.get_or_insert_with(Instant::now);
    }
}

/// What the shared phase sequence produced.
pub struct Driven {
    /// Events offered over all phases.
    pub sent: u64,
    pub throughput_evps: f64,
    /// How late the open-loop generator ran, per event (ms).
    pub lags_ms: Vec<f64>,
    /// False when some phase's results never all arrived.
    pub drained: bool,
}

/// Set `peak_rss_mb` from the mark; a run too short or too slow to reach
/// the mark's event count reports the high-water mark so far, and says so.
fn set_peak_rss(report: &mut Report, rss: &RssMark, workload: &Workload) {
    let mb = rss.mb.unwrap_or_else(|| {
        report.notes.push(format!(
            "peak_rss_mb read at the end: the run never completed {} events",
            workload.rss_at_events
        ));
        load::peak_rss_mb()
    });
    report.set("peak_rss_mb", mb);
}

/// The end of set-up (the first `setup_events` events answered, which
/// stops `setup`), warm-up, `saturate`, (traced: `saturate` again with
/// stamps on), `paced`, each followed by a drain.
pub fn drive(
    clock: &Clock,
    target: &mut dyn Target,
    params: &Params,
    workload: &Workload,
    stamps: &PhaseStamps,
    report: &mut Report,
    mut setup: Stopwatch,
) -> Driven {
    let phases = params.phases();
    let wait = Duration::from_secs(5);
    let mut rss = RssMark::at(workload.rss_at_events);
    let mut drained = load::first_events(target, workload.setup_events, wait);
    setup.pause();
    report.set("setup_s", setup.total.as_secs_f64());

    let (mut seq, _) = load::saturate(
        clock,
        target,
        workload.setup_events,
        phases.warmup_ns,
        None,
        &mut rss,
    );
    drained &= load::drain(target, seq, wait);

    let (next, rates) = load::saturate(clock, target, seq, phases.saturate_ns, None, &mut rss);
    seq = next;
    drained &= load::drain(target, seq, wait);
    let throughput_evps = median(&rates);
    report.notes.push(format!(
        "saturate slices (ev/s): {}",
        rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    if let Some(stamps) = &stamps.saturate {
        stamps.start_at(seq);
        let (next, traced_rates) = load::saturate(
            clock,
            target,
            seq,
            phases.saturate_ns,
            Some(stamps),
            &mut rss,
        );
        seq = next;
        drained &= load::drain(target, seq, wait);
        report.set(
            "trace.overhead_share",
            median(&traced_rates) / throughput_evps - 1.0,
        );
    }

    let lags_ms = load::paced(
        clock,
        target,
        &stamps.paced,
        seq,
        workload.paced_rate,
        &mut rss,
    );
    seq += stamps.paced.len() as u64;
    drained &= load::drain(target, seq, wait);
    set_peak_rss(report, &rss, workload);
    Driven {
        sent: seq,
        throughput_evps,
        lags_ms,
        drained,
    }
}

/// Fill in the metrics every workload derives the same way from its
/// `paced` stamps: acknowledgement latency, generator lag, offered rate.
/// Returns the number of failed acknowledgements.
pub fn summarize_acks(report: &mut Report, stamps: &Stamps, lags_ms: Vec<f64>, rate: u64) -> u64 {
    let acks = load::latencies(stamps, &stamps.ack, |_| true);
    set_latency(
        report,
        ["ops.ack_p50_ms", "ops.ack_p90_ms", "ops.ack_p99_ms"],
        &acks.sliced,
    );

    let lag_p99 = stats::percentile(&stats::sorted(lags_ms), 0.99);
    report.set("loadgen.sched_lag_p99_ms", lag_p99);
    if lag_p99 > 1.0 {
        report.notes.push(format!(
            "INVALID LOAD: the generator itself ran {lag_p99:.2} ms late at p99 (> 1 ms); \
             the paced figures measure this box, not the engine"
        ));
    }
    let first = stamps.due[0].load(Ordering::Relaxed);
    let last_sent = stamps.sent[stamps.len() - 1].load(Ordering::Relaxed);
    let achieved = stamps.len() as f64 * 1e9 / (last_sent - first).max(1) as f64;
    report.set("loadgen.offered_evps", achieved / rate as f64);
    report.notes.push(format!(
        "paced at {rate} ev/s: generator lag p99 {lag_p99:.3} ms, offered {:.4} of nominal",
        achieved / rate as f64
    ));
    acks.failed
}

/// Fill in result latency from a per-event `result` column.
pub fn summarize_results(
    report: &mut Report,
    stamps: &Stamps,
    wanted: impl Fn(usize) -> bool,
) -> u64 {
    let results = load::latencies(stamps, &stamps.result, wanted);
    set_result_latency(report, &results.sliced);
    results.failed
}

pub fn set_result_latency(report: &mut Report, sliced: &stats::Sliced) {
    set_latency(
        report,
        ["result_p50_ms", "result_p90_ms", "ops.result_p99_ms"],
        sliced,
    );
}

/// Median, p90 and p99 of one latency under the three given names.
fn set_latency(report: &mut Report, names: [&'static str; 3], sliced: &stats::Sliced) {
    for (name, q) in names.into_iter().zip([0.5, 0.9, 0.99]) {
        report.samples.insert(name, sliced.samples());
        report.set(name, sliced.percentile(q).unwrap_or(0.0));
    }
}

/// Events per stamped phase whose client spans are kept: bounds the
/// trace file.
const SPANNED_EVENTS: usize = 5_000;

/// Client-side spans of a traced run's stamped phases (nothing when the
/// run was not traced).
pub fn client_spans(trace: &mut Trace, stamps: &PhaseStamps) {
    if let Some(saturate) = &stamps.saturate {
        phase_spans(trace, &stamps.paced);
        phase_spans(trace, saturate);
    }
}

/// Per event a root `event` span with `send`, `ack` and `result` children.
fn phase_spans(trace: &mut Trace, stamps: &Stamps) {
    let first_seq = stamps.first_seq();
    for i in 0..stamps.len().min(SPANNED_EVENTS) {
        let at = |column: &[std::sync::atomic::AtomicU64]| column[i].load(Ordering::Relaxed);
        let (due, sent, ack, result) = (
            at(&stamps.due),
            at(&stamps.sent),
            at(&stamps.ack),
            at(&stamps.result),
        );
        if due == 0 || sent == 0 {
            continue;
        }
        let event = first_seq + i as u64;
        let root = trace.add("event", due, sent.max(ack).max(result), None, event);
        trace.add("send", due, sent, Some(root), event);
        if ack != 0 {
            trace.add("ack", sent.min(ack), ack, Some(root), event);
        }
        if result != 0 {
            trace.add("result", sent.min(result), result, Some(root), event);
        }
    }
}
