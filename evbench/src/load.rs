//! The load generator shared by the four workloads: a monotonic clock,
//! per-event stamps for the `paced` phase, the closed-loop `saturate`
//! driver, the open-loop `paced` driver, and the latency summaries.
//!
//! A workload plugs in through [`Target`]: how one event is offered and how
//! many events have had their result observed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::spec::{LATE_NS, SATURATE_SHARE, WARMUP_SHARE};
use crate::stats::{Sliced, SLICES};

/// Nanoseconds since the run's epoch. Shared by every thread, so stamps
/// taken on different threads compare directly.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Never 0: 0 marks an unset stamp.
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64 + 1
    }

    /// Sleep until `at_ns`, then return the time actually reached.
    pub fn sleep_until(&self, at_ns: u64) -> u64 {
        loop {
            let now = self.now_ns();
            if now >= at_ns {
                return now;
            }
            std::thread::sleep(Duration::from_nanos(at_ns - now));
        }
    }
}

/// Phase lengths, all derived from `--seconds` by fixed shares.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    pub warmup_ns: u64,
    pub saturate_ns: u64,
    pub paced_ns: u64,
}

impl Phases {
    pub fn of(seconds: f64) -> Phases {
        let ns = |s: f64| (s * 1e9) as u64;
        Phases {
            warmup_ns: ns(seconds * WARMUP_SHARE),
            saturate_ns: ns(seconds * SATURATE_SHARE),
            paced_ns: ns(seconds * (1.0 - SATURATE_SHARE)),
        }
    }
}

/// Per-event stamps of the `paced` phase, indexed by `seq - base`.
/// Written by the producer (`due`, `sent`), whoever sees the
/// acknowledgement (`ack`) and whoever sees the result (`result`).
pub struct Stamps {
    /// First sequence number of the phase; `u64::MAX` until it starts.
    base: AtomicU64,
    pub due: Vec<AtomicU64>,
    pub sent: Vec<AtomicU64>,
    pub ack: Vec<AtomicU64>,
    pub result: Vec<AtomicU64>,
}

impl Stamps {
    pub fn new(events: usize) -> Stamps {
        let column = || (0..events).map(|_| AtomicU64::new(0)).collect();
        Stamps {
            base: AtomicU64::new(u64::MAX),
            due: column(),
            sent: column(),
            ack: column(),
            result: column(),
        }
    }

    pub fn len(&self) -> usize {
        self.due.len()
    }

    /// Open the stamped phase at `first_seq`. Call once every earlier
    /// event has drained, so no reader races the switch.
    pub fn start_at(&self, first_seq: u64) {
        self.base.store(first_seq, Ordering::Release);
    }

    pub fn first_seq(&self) -> u64 {
        self.base.load(Ordering::Acquire)
    }

    /// Index of `seq` in the stamped phase, if it belongs to it.
    pub fn index(&self, seq: u64) -> Option<usize> {
        let i = seq.checked_sub(self.first_seq())? as usize;
        (i < self.len()).then_some(i)
    }

    /// Stamp `column[seq]` once; a second stamp is ignored and reported,
    /// so a duplicated result cannot overwrite (and shorten) the first.
    pub fn stamp(&self, column: &[AtomicU64], seq: u64, now_ns: u64) -> bool {
        match self.index(seq) {
            Some(i) => column[i]
                .compare_exchange(0, now_ns, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok(),
            None => true,
        }
    }
}

/// The stamped phases of one run: `paced` always, and the rerun of
/// `saturate` when tracing. Readers stamp through this, so they need not
/// know which phase an event belongs to.
pub struct PhaseStamps {
    pub paced: Stamps,
    pub saturate: Option<Stamps>,
}

/// Events of the traced `saturate` rerun that get stamps.
const TRACED_SATURATE_EVENTS: usize = 400_000;

impl PhaseStamps {
    pub fn new(paced_events: usize, traced: bool) -> PhaseStamps {
        PhaseStamps {
            paced: Stamps::new(paced_events),
            saturate: traced.then(|| Stamps::new(TRACED_SATURATE_EVENTS)),
        }
    }

    fn stamp(&self, pick: impl Fn(&Stamps) -> &[AtomicU64], seq: u64, now_ns: u64) -> bool {
        let fresh = self.paced.stamp(pick(&self.paced), seq, now_ns);
        self.saturate
            .as_ref()
            .map_or(fresh, |s| s.stamp(pick(s), seq, now_ns) && fresh)
    }

    /// False when `seq` already had an acknowledgement.
    pub fn stamp_ack(&self, seq: u64, now_ns: u64) -> bool {
        self.stamp(|s| &s.ack, seq, now_ns)
    }

    /// False when `seq` already had a result.
    pub fn stamp_result(&self, seq: u64, now_ns: u64) -> bool {
        self.stamp(|s| &s.result, seq, now_ns)
    }
}

/// How a workload takes load.
pub trait Target {
    /// Offer event `seq`. Embedded targets return once the engine has
    /// accepted it; served targets once the request is buffered.
    fn send(&mut self, seq: u64);
    /// Push buffered requests onto the wire (served targets).
    fn flush(&mut self) {}
    /// Events whose result has been observed at the sink.
    fn completed(&self) -> u64;
    /// Requests that may be outstanding in the closed loop; `None` when
    /// the engine's own back-pressure bounds the producer.
    fn window(&self) -> Option<u64>;
    /// True when `send` returning *is* the acknowledgement.
    fn acks_inline(&self) -> bool;
    /// Block until the closed loop's window may have opened. Served
    /// targets park here and the sink unparks them, so the producer
    /// refills the moment results arrive instead of on a sleep tick.
    fn wait_for_window(&mut self) {
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// Closed loop for `len_ns`: offer events as fast as the target takes
/// them. Returns the next sequence number and the per-slice completion
/// rates (events whose result reached the sink, per second). With
/// `stamps`, the events that fit are stamped like paced ones, due when
/// sent: the traced rerun whose cost `trace.overhead_share` reports.
pub fn saturate(
    clock: &Clock,
    target: &mut dyn Target,
    mut seq: u64,
    len_ns: u64,
    stamps: Option<&Stamps>,
    rss: &mut RssMark,
) -> (u64, Vec<f64>) {
    let start = clock.now_ns();
    let inline = target.acks_inline();
    let slice_ns = (len_ns / SLICES as u64).max(1);
    let mut rates = Vec::with_capacity(SLICES);
    let (mut boundary, mut last_done, mut last_at) = (start + slice_ns, target.completed(), start);
    loop {
        let now = clock.now_ns();
        rss.observe(target.completed());
        if now >= boundary {
            let done = target.completed();
            rates.push((done - last_done) as f64 * 1e9 / (now - last_at) as f64);
            (last_done, last_at) = (done, now);
            boundary += slice_ns;
            if rates.len() == SLICES {
                break;
            }
        }
        if target
            .window()
            .is_some_and(|w| seq - target.completed() >= w)
        {
            target.flush();
            target.wait_for_window();
            continue;
        }
        target.send(seq);
        if let Some(i) = stamps.and_then(|s| s.index(seq)) {
            let stamps = stamps.expect("index came from it");
            let after = clock.now_ns();
            stamps.due[i].store(now, Ordering::Relaxed);
            stamps.sent[i].store(after, Ordering::Relaxed);
            if inline {
                stamps.ack[i].store(after, Ordering::Relaxed);
            }
        }
        seq += 1;
    }
    target.flush();
    (seq, rates)
}

/// Closed loop for the first `count` events of a run: offer them as fast
/// as the target takes them, then wait until each has its result. What
/// an engine does lazily on its first events is set-up work too, so
/// `setup_s` runs until this returns. False when results were still
/// missing `timeout` after the last event was offered.
pub fn first_events(target: &mut dyn Target, count: u64, timeout: Duration) -> bool {
    let mut seq = 0;
    while seq < count {
        if target
            .window()
            .is_some_and(|w| seq - target.completed() >= w)
        {
            target.flush();
            target.wait_for_window();
            continue;
        }
        target.send(seq);
        seq += 1;
    }
    target.flush();
    drain(target, count, timeout)
}

/// Wait until every event below `seq` has its result, or `timeout`.
pub fn drain(target: &dyn Target, seq: u64, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while target.completed() < seq {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// Open loop: offer `stamps.len()` events at `rate` per second on a fixed
/// schedule that does not slow when the target does. Each event's `due`
/// stamp is its scheduled time, not the time it was sent; the returned
/// lags say how late the generator itself ran.
pub fn paced(
    clock: &Clock,
    target: &mut dyn Target,
    stamps: &Stamps,
    first_seq: u64,
    rate: u64,
    rss: &mut RssMark,
) -> Vec<f64> {
    stamps.start_at(first_seq);
    let start = clock.now_ns() + 1_000_000;
    let inline = target.acks_inline();
    let mut lags_ms = Vec::with_capacity(stamps.len());
    for i in 0..stamps.len() {
        let due = start + (i as u64 * 1_000_000_000) / rate;
        let now = clock.sleep_until(due);
        rss.observe(target.completed());
        stamps.due[i].store(due, Ordering::Relaxed);
        lags_ms.push((now - due) as f64 / 1e6);
        target.send(first_seq + i as u64);
        target.flush();
        let after = clock.now_ns();
        stamps.sent[i].store(after, Ordering::Relaxed);
        if inline {
            stamps.ack[i].store(after, Ordering::Relaxed);
        }
    }
    lags_ms
}

/// Latencies of one stamped column against `due`, sliced over the phase.
pub struct Latencies {
    pub sliced: Sliced,
    /// Stamps never set, or set later than [`LATE_NS`] after due.
    pub failed: u64,
}

/// Summarize `column - due` for the events `wanted` selects.
pub fn latencies(
    stamps: &Stamps,
    column: &[AtomicU64],
    wanted: impl Fn(usize) -> bool,
) -> Latencies {
    let n = stamps.len();
    let first = stamps.due.first().map_or(0, |d| d.load(Ordering::Relaxed));
    let last = stamps.due.last().map_or(0, |d| d.load(Ordering::Relaxed));
    let mut sliced = Sliced::new(first, (last - first).max(1));
    let mut failed = 0;
    for i in (0..n).filter(|&i| wanted(i)) {
        let due = stamps.due[i].load(Ordering::Relaxed);
        let at = column[i].load(Ordering::Relaxed);
        if at == 0 {
            failed += 1;
            continue;
        }
        let lat = at.saturating_sub(due);
        failed += (lat > LATE_NS) as u64;
        sliced.add(due, lat as f64 / 1e6);
    }
    Latencies { sliced, failed }
}

/// `peak_rss_mb`: the resident-set high-water mark read once, when the
/// run's `at`-th event has completed. Memory grows with the events a run
/// has handled (tables, journals, window state), and how many a run gets
/// through in `saturate` depends on the box's speed that minute; read at
/// the end, the figure followed `throughput_evps` up and down. Read at a
/// fixed event count it is the memory that much work needs.
pub struct RssMark {
    at: u64,
    pub mb: Option<f64>,
}

impl RssMark {
    pub fn at(events: u64) -> RssMark {
        RssMark {
            at: events,
            mb: None,
        }
    }

    pub fn observe(&mut self, completed: u64) {
        if self.mb.is_none() && completed >= self.at {
            self.mb = Some(peak_rss_mb());
        }
    }
}

/// Reset the kernel's resident-set high-water mark, so that a run's
/// `peak_rss_mb` is its own even when one process runs several.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A sink that stalls: results are observed only `stall` after the
    /// event was offered, and the target reports nothing else.
    struct Stalled {
        clock: Clock,
        stamps: Arc<Stamps>,
        stall_ns: u64,
        sent: u64,
    }

    impl Target for Stalled {
        fn send(&mut self, seq: u64) {
            // The engine is wedged for `stall_ns` on the 10th event: the
            // producer is blocked, as under `Block` back-pressure.
            if seq == 10 {
                std::thread::sleep(Duration::from_nanos(self.stall_ns));
            }
            let now = self.clock.now_ns();
            self.stamps.stamp(&self.stamps.result, seq, now);
            self.sent = seq + 1;
        }
        fn completed(&self) -> u64 {
            self.sent
        }
        fn window(&self) -> Option<u64> {
            None
        }
        fn acks_inline(&self) -> bool {
            true
        }
    }

    /// The open loop stamps due times from the schedule: a stall delays
    /// the events queued behind it, and their latency shows it. Timing
    /// from the send instant would hide the stall completely.
    #[test]
    fn a_stalled_target_raises_latency_of_the_events_behind_it() {
        let clock = Clock::start();
        let stamps = Arc::new(Stamps::new(40));
        let stall_ns = 30_000_000;
        let mut target = Stalled {
            clock,
            stamps: Arc::clone(&stamps),
            stall_ns,
            sent: 0,
        };
        let mut rss = RssMark::at(25);
        let lags = paced(&clock, &mut target, &stamps, 0, 2_000, &mut rss);
        // Read when the 25th event had completed, not at the end.
        assert!(rss.mb.is_some_and(|mb| mb > 1.0));
        assert_eq!(lags.len(), 40);

        // Due times are the fixed schedule: exactly 500 us apart.
        for i in 1..40 {
            let gap =
                stamps.due[i].load(Ordering::Relaxed) - stamps.due[i - 1].load(Ordering::Relaxed);
            assert_eq!(gap, 500_000);
        }
        let from_due = |i: usize| {
            stamps.result[i].load(Ordering::Relaxed) - stamps.due[i].load(Ordering::Relaxed)
        };
        // Event 10 stalled 30 ms; event 20 was due 5 ms later and still
        // waited ~25 ms, though its own send took no time at all.
        assert!(from_due(10) >= stall_ns);
        assert!(from_due(20) >= stall_ns - 6_000_000, "{}", from_due(20));
        let from_sent = stamps.result[20]
            .load(Ordering::Relaxed)
            .saturating_sub(stamps.sent[20].load(Ordering::Relaxed));
        assert!(
            from_sent < 1_000_000,
            "send-relative timing hides the stall: {from_sent}"
        );
        // And the generator reports that it ran late.
        assert!(lags[20] > 20.0, "{}", lags[20]);
    }

    /// Set-up ends when the first events are answered, however long the
    /// engine takes over them.
    #[test]
    fn first_events_offers_exactly_that_many_and_waits_for_their_results() {
        let clock = Clock::start();
        let stamps = Arc::new(Stamps::new(0));
        let mut target = Stalled {
            clock,
            stamps,
            stall_ns: 20_000_000,
            sent: 0,
        };
        let t = Instant::now();
        assert!(first_events(&mut target, 12, Duration::from_secs(1)));
        assert_eq!(target.completed(), 12);
        assert!(t.elapsed() >= Duration::from_millis(20), "the stall is in");
    }

    #[test]
    fn stamps_ignore_other_phases_and_second_writes() {
        let stamps = Stamps::new(4);
        assert_eq!(stamps.index(0), None, "phase not started");
        stamps.start_at(100);
        assert_eq!(stamps.index(99), None);
        assert_eq!(stamps.index(100), Some(0));
        assert_eq!(stamps.index(104), None);
        assert!(stamps.stamp(&stamps.result, 101, 7));
        assert!(
            !stamps.stamp(&stamps.result, 101, 9),
            "duplicate result reported"
        );
        assert_eq!(stamps.result[1].load(Ordering::Relaxed), 7);
        assert!(
            stamps.stamp(&stamps.result, 5, 9),
            "other phases are not stamped"
        );
    }

    #[test]
    fn missing_and_late_results_count_as_failed() {
        let stamps = Stamps::new(4);
        stamps.start_at(0);
        for i in 0..4 {
            stamps.due[i].store(1_000 + i as u64 * 1_000, Ordering::Relaxed);
        }
        stamps.result[0].store(2_000_000, Ordering::Relaxed); // 2 ms
        stamps.result[1].store(LATE_NS + 10_000, Ordering::Relaxed); // late
        stamps.result[3].store(5_000, Ordering::Relaxed); // result[2] missing
        let l = latencies(&stamps, &stamps.result, |_| true);
        assert_eq!(l.failed, 2);
        assert_eq!(l.sliced.samples(), 3);
        let only_first = latencies(&stamps, &stamps.result, |i| i == 0);
        assert_eq!((only_first.failed, only_first.sliced.samples()), (0, 1));
    }

    #[test]
    fn phases_split_seconds_by_fixed_shares() {
        let p = Phases::of(20.0);
        assert_eq!(
            (p.warmup_ns, p.saturate_ns, p.paced_ns),
            (2_000_000_000, 8_000_000_000, 12_000_000_000)
        );
        let mut rss = RssMark::at(10);
        rss.observe(9);
        assert!(rss.mb.is_none());
        rss.observe(12);
        assert!(rss.mb.is_some_and(|mb| mb > 1.0));
    }
}
