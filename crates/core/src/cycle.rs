//! The one cycle (D15): drain → route → evaluate → deliver → end of
//! batch, one at a time whichever thread runs it.
//!
//! [`Cycle`] owns what the cycle needs beside its stages: the **gate**
//! (held from drain to delivery, so per-key arrival order holds whoever
//! pumps), the count of attached background pumps, the stager's pass
//! bound, and the one place where cycles, errors and wake-ups are
//! counted. The entry points that run a cycle on the caller's thread are
//! here too, on [`EventServer`]; the pump thread (`pump.rs`) runs the
//! same [`run_cycle`](EventServer::run_cycle).
//!
//! The gate knows which thread holds it, so a subscriber or notification
//! handler that calls back into [`pump`](EventServer::pump) or
//! [`run_staged`](EventServer::run_staged) is refused (and counted as an
//! error) instead of waiting forever for the cycle that is calling it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use evdb_obs::{Counter, Registry};
use evdb_types::{Error, Event, Record, Result, TimestampMs};
use parking_lot::{Mutex, MutexGuard};

use crate::admission::Wake;
use crate::capture::Drained;
use crate::metrics::StageBatch;
use crate::server::{EventServer, PumpStats};

/// Cycles a stager runs back to back in [`EventServer::run_staged`]
/// before it hands what is still staged to the pump thread: enough to
/// sweep up what raced in behind its own events, few enough that one
/// connection is never captured by everybody else's traffic.
const STAGER_PASSES: usize = 4;

/// A cycle's stats, how many errors it met, and the first of them.
pub(crate) type Outcome = (PumpStats, u64, Option<Error>);

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// This thread's token for [`Cycle::holder`]: nonzero, unique per thread.
    static THREAD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// The cycle's owner; see the module documentation. Its counters are
/// bound at server construction, so the series exist (at zero) before
/// any pump is spawned: from `/metrics` alone an operator can tell a
/// pump woken 18 000×/s by staged work from one ticking idle (D9).
/// The counters are `evdb_pump_<field>_total`: `wakeups{cause=…}`
/// (indexed by [`Wake`]; `work` counts the turns a pump thread took
/// because staged events were asked for), `cycles` (run by every pump
/// and stager; one pump's share is on its handle), `inline_cycles` (of
/// those, the ones stagers ran), `errors` (cycles or evaluations that errored).
pub(crate) struct Cycle {
    gate: Mutex<()>,
    /// The token of the thread holding the gate, 0 when none does. Only a
    /// thread stores its own token, so a thread that reads its own token
    /// here holds the gate.
    holder: AtomicUsize,
    /// Background pumps currently attached.
    pumps: Arc<AtomicUsize>,
    wakeups: [Arc<Counter>; 3],
    maintenance: Arc<Counter>,
    cycles: Arc<Counter>,
    inline_cycles: Arc<Counter>,
    errors: Arc<Counter>,
}

/// One background pump's own cycle and error counts, read through its
/// [`PumpHandle`](crate::PumpHandle) (also with a disabled registry).
#[derive(Default)]
pub(crate) struct PumpTally {
    pub(crate) cycles: AtomicU64,
    pub(crate) errors: AtomicU64,
}

/// The held cycle gate; marks its thread as the holder until dropped.
struct Held<'a> {
    holder: &'a AtomicUsize,
    _gate: MutexGuard<'a, ()>,
}

impl Drop for Held<'_> {
    fn drop(&mut self) {
        // Runs before the guard's own drop: unmarked, then unlocked.
        self.holder.store(0, Ordering::Relaxed);
    }
}

/// Counts a background pump in for as long as it is held.
pub(crate) struct Attached(Arc<AtomicUsize>);

impl Drop for Attached {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Cycle {
    pub(crate) fn new(registry: &Registry) -> Cycle {
        let counter = |name: &str| registry.counter(name);
        Cycle {
            gate: Mutex::new(()),
            holder: AtomicUsize::new(0),
            pumps: Arc::new(AtomicUsize::new(0)),
            wakeups: [Wake::Work, Wake::Tick, Wake::Stop]
                .map(|w| counter(&format!("evdb_pump_wakeups_total{{cause=\"{}\"}}", w.name()))),
            maintenance: counter("evdb_pump_maintenance_total"),
            cycles: counter("evdb_pump_cycles_total"),
            inline_cycles: counter("evdb_pump_inline_cycles_total"),
            errors: counter("evdb_pump_errors_total"),
        }
    }

    /// Take the gate, waiting out a cycle in flight on another thread.
    /// `None`, counted as an error, when this thread holds it already: a
    /// subscriber or hook calling back into its own cycle would wait for
    /// itself.
    fn enter(&self) -> Option<Held<'_>> {
        let me = THREAD.with(|t| *t);
        if self.holder.load(Ordering::Relaxed) == me {
            self.errors.inc();
            return None;
        }
        let gate = self.gate.lock();
        self.holder.store(me, Ordering::Relaxed);
        Some(Held { holder: &self.holder, _gate: gate })
    }

    /// Count a background pump in, before its thread exists; dropping
    /// the guard counts it out, however the thread ends.
    pub(crate) fn attach_pump(&self) -> Attached {
        self.pumps.fetch_add(1, Ordering::SeqCst);
        Attached(Arc::clone(&self.pumps))
    }

    /// True while a background pump is attached: a stager may then
    /// stand in for it.
    fn stands_in(&self) -> bool {
        self.pumps.load(Ordering::SeqCst) > 0
    }

    /// Count one return from a pump thread's wait, by cause, and whether
    /// the turn includes maintenance.
    pub(crate) fn woke(&self, cause: Wake, maintenance: bool) {
        self.wakeups[cause as usize].inc();
        if maintenance {
            self.maintenance.inc();
        }
    }

    /// Count `cycles` cycles and `errors` errors, run by a background
    /// pump (`Some` of its tally) or by a stager (`None`: inline cycles).
    pub(crate) fn count(&self, pump: Option<&PumpTally>, cycles: u64, errors: u64) {
        match pump {
            Some(tally) => {
                tally.cycles.fetch_add(cycles, Ordering::Relaxed);
                tally.errors.fetch_add(errors, Ordering::Relaxed);
            }
            None => self.inline_cycles.add(cycles),
        }
        self.cycles.add(cycles);
        self.errors.add(errors);
    }
}

impl EventServer {
    /// Run the full cycle: every pending captured change through the
    /// pipeline, then maintenance. Deterministic: with a `SimClock`,
    /// repeated runs produce identical results. Returns the first error
    /// met, after every other drained event was evaluated and delivered.
    /// Waits for a cycle in flight on another thread (D15); called from a
    /// subscriber or notification handler (inside this server's cycle) it
    /// returns [`Error::Reentrant`] at once.
    pub fn pump(&self) -> Result<PumpStats> {
        let (stats, _, first_error) = self.run_cycle(true, true);
        first_error.map_or(Ok(stats), Err)
    }

    /// Push one external event into a stream, running the evaluation
    /// pipeline for it immediately: a batch of one on the calling thread.
    pub fn ingest(&self, stream: &str, timestamp: TimestampMs, payload: Record) -> Result<PumpStats> {
        let event = self.capture.capture_one(stream, timestamp, payload)?;
        let (stats, _, first_error) = self.run_batch(vec![event]);
        first_error.map_or(Ok(stats), Err)
    }

    /// [`ingest_async`](Self::ingest_async) for a caller that would
    /// otherwise block right after staging (a connection's reader): the
    /// first half of the stage-then-run pair. While a background pump is
    /// attached the event is pushed quietly — the pump leaves it alone —
    /// and the caller owes a [`run_staged`](Self::run_staged) once it has
    /// staged all it has in hand. With no pump attached this is
    /// `ingest_async` exactly.
    pub fn stage(&self, stream: &str, timestamp: TimestampMs, payload: Record) -> Result<()> {
        self.capture.offer(stream, timestamp, payload, self.cycle.stands_in())
    }

    /// The second half of the pair: evaluate what is staged on the
    /// calling thread instead of waking the pump thread. The caller takes
    /// the cycle gate — waiting out a cycle in flight, as
    /// [`pump`](Self::pump) does (DESIGN.md §7) — and runs work cycles
    /// until the buffer is empty, at most `STAGER_PASSES` of them, then
    /// asks the pump for the rest. No event waits for the tick: whoever
    /// pushed it quietly is on its way to the gate.
    ///
    /// Does nothing unless a background pump is attached
    /// (without one [`stage`](Self::stage) was a plain `ingest_async`).
    /// Must not be called from inside a trigger (the cycle would run
    /// inside the writer's transaction). Called from inside a subscriber
    /// (this server's cycle holds the gate) it counts an error, leaves
    /// what is staged to the pump and returns at once.
    pub fn run_staged(&self) {
        if !self.cycle.stands_in() {
            return;
        }
        let admission = &self.capture.admission;
        if let Some(_held) = self.cycle.enter() {
            for _ in 0..STAGER_PASSES {
                if admission.depth() == 0 {
                    return;
                }
                let (_, errors, _) = self.cycle_gated(false, true);
                self.cycle.count(None, 1, errors);
            }
        }
        if admission.depth() > 0 {
            admission.wake();
        }
    }

    /// One cycle under the gate — what [`pump`](Self::pump) and the
    /// pump thread run. It evaluates what producers `staged` (a pump's
    /// tick leaves that to the stagers); a `maintenance` cycle also
    /// polls the pull-based captures and runs [`maintain`](Self::maintain).
    pub(crate) fn run_cycle(&self, maintenance: bool, staged: bool) -> Outcome {
        let Some(_held) = self.cycle.enter() else {
            // Only `pump()` can get here (the pump thread never nests);
            // `enter` counted the error.
            let refused = "pump() called from inside this server's cycle (by a subscriber or handler)";
            return (PumpStats::default(), 0, Some(Error::Reentrant(refused.into())));
        };
        self.cycle_gated(maintenance, staged)
    }

    /// The cycle itself; the caller holds the gate.
    fn cycle_gated(&self, maintenance: bool, staged: bool) -> Outcome {
        let Drained { events, poll_error } = self.capture.drain(maintenance, staged);
        let (stats, mut errors, mut first_error) = self.run_batch(events);
        if let Some(e) = poll_error {
            // The poll failed before anything was evaluated.
            errors += 1;
            first_error = Some(e);
        }
        if maintenance {
            if let Err(e) = self.maintain() {
                errors += 1;
                first_error.get_or_insert(e);
            }
        }
        (stats, errors, first_error)
    }

    /// Route, evaluate and deliver a batch on the calling thread, then
    /// give the end-of-batch signal.
    fn run_batch(&self, mut events: Vec<Event>) -> Outcome {
        // One clock read serves every stage stamp this cycle: the stage
        // histograms have 10ms bins, so per-event clock reads would buy
        // no resolution and cost a measurable share of the pipeline
        // (experiment E13 bounds the total tax).
        let now = self.now();
        let mut batch = StageBatch::default();
        for event in &mut events {
            self.capture.route(event, now, &mut batch);
        }
        let evaluated = self.evaluate.evaluate(&mut events, now, &mut batch);
        self.stage_obs.flush(&mut batch);
        let stats = PumpStats {
            captured: events.len() as u64,
            derived: evaluated.derived,
            notified: self.notify.deliver_batch(evaluated.notes),
        };
        self.notify.end_batch();
        (stats, evaluated.errors, evaluated.first_error)
    }

    /// Housekeeping on the maintenance tick: make queue messages whose
    /// visibility timeout lapsed deliverable again, then bounded history
    /// maintenance — at most one segment merge per stream, so compaction
    /// rides the pump cadence instead of needing its own thread
    /// (determinism under SimClock).
    fn maintain(&self) -> Result<()> {
        for q in self.queues().queue_names() {
            let _ = self.queues().reap_timeouts(&q);
        }
        if let Some(history) = self.history() {
            history.maintain()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

    use evdb_types::{DataType, Record, Schema, TimestampMs, Value};

    use crate::pump::spawn_pump;
    use crate::server::tests::server;

    /// A subscriber runs inside the cycle, on the thread holding the gate;
    /// calling back into `run_staged()` or `pump()` from there used to wait
    /// for that very cycle. Now each is refused at once and counted.
    #[test]
    fn a_subscriber_calling_back_into_its_own_cycle_is_refused_not_hung() {
        let (s, _clock) = server();
        let s = Arc::new(s);
        s.create_stream("ticks", Schema::of(&[("px", DataType::Float)])).unwrap();
        s.register_cql("all", "SELECT px FROM ticks").unwrap();
        let (tx, rx) = mpsc::channel();
        let weak = Arc::downgrade(&s);
        s.on_query(
            "all",
            Arc::new(move |_| {
                let s = weak.upgrade().expect("server outlives its cycle");
                s.run_staged();
                let _ = tx.send(s.pump().map(|_| ()).map_err(|e| e.kind()));
            }),
        )
        .unwrap();
        let errors = |s: &crate::EventServer| s.registry().snapshot().counters["evdb_pump_errors_total"];
        let before = errors(&s);
        // `run_staged` only runs cycles while a background pump is attached;
        // the pump runs this event's cycle and so the subscriber.
        let pump = spawn_pump(&s, Duration::from_secs(120));
        s.ingest_async("ticks", TimestampMs(1_000), Record::from_iter([Value::Float(1.0)]))
            .unwrap();
        let Ok(got) = rx.recv_timeout(Duration::from_secs(10)) else {
            // The pump thread is stuck in its own cycle: dropping the
            // handle would join it and hang the test instead of failing it.
            std::mem::forget(pump);
            panic!("a call from inside the cycle waited for the cycle");
        };
        assert_eq!(got, Err("reentrant"));
        pump.stop();
        assert_eq!(errors(&s) - before, 2, "both refusals are counted");
        // The gate was released: a call from outside runs normally.
        assert!(s.pump().is_ok());
    }
}
