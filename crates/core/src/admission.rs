//! Admission control for the staged ingest path (DESIGN.md D10).
//!
//! Producers — capture triggers firing inside writer transactions and
//! [`ingest_async`] callers — stage events into one bounded buffer that
//! the pump drains. The buffer is the single source of cross-stream
//! arrival order, and its capacity is the system's explicit overload
//! boundary: when it is full, the configured [`OverloadPolicy`] decides
//! whether the producer waits, is turned away, or displaces the
//! lowest-priority staged event. Every outcome is counted — nothing is
//! capped or dropped silently (the D9 rule).
//!
//! The accounting invariant the policies uphold (asserted by experiment
//! E14 and `tests/prop_overload.rs`):
//!
//! ```text
//! offered == drained + shed + rejected
//! ```
//!
//! where `drained` events are exactly the ones the pump goes on to
//! evaluate.
//!
//! Pull-based captures (journal mining, query-poll snapshots) are not
//! staged here: the pump reads them at its own pace, so they are
//! naturally bounded by the drain cadence.
//!
//! The buffer is also the pipeline's **work signal**: an idle pump parks
//! in [`AdmissionControl::wait_for_work`] and the next
//! [`admit`](AdmissionControl::admit) wakes it, so a staged event never
//! waits out a sleep. The parked flag lives under the buffer's own
//! mutex — the consumer raises it only after seeing the buffer empty
//! under that lock, and `admit` pushes and reads it under the same lock —
//! so a wake-up cannot fall between the emptiness check and the wait,
//! and a running pump (flag down) costs producers no `notify` at all.
//!
//! Offering has two halves: [`push`](AdmissionControl::push) stages,
//! [`wake`](AdmissionControl::wake) asks for the consumer, and `admit`
//! is both under one lock acquisition. A producer that evaluates what it
//! staged itself ([`EventServer::run_staged`]) pushes quietly, and a
//! consumer leaves quiet pushes to it: they are not work until asked for.
//! Nothing is stranded: the stager runs what it staged and asks for the
//! rest. The one rule the quiet half adds is in `Block`: a producer
//! about to wait for *space* asks first, because the stager whose cycle
//! would have made the space may be that very producer.
//!
//! [`ingest_async`]: crate::server::EventServer::ingest_async
//! [`EventServer::run_staged`]: crate::server::EventServer::run_staged

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use evdb_storage::ChangeEvent;
use evdb_types::{Error, Event, Result};
use parking_lot::{Condvar, Mutex, MutexGuard};

/// What happens to a producer offering an event when the staged ingest
/// buffer is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// The producer waits until the pump drains — durability-first
    /// backpressure, no event is ever turned away or displaced.
    #[default]
    Block,
    /// The offer fails with [`Error::Overloaded`] so the producer can
    /// retry with backoff. On the trigger-capture path the error aborts
    /// (rolls back) the producer's write, keeping table and stream
    /// consistent.
    Reject,
    /// Admit by displacing the lowest-priority staged event (oldest
    /// first among ties); when nothing staged ranks below the newcomer,
    /// the newcomer itself is shed. Either way the producer's write
    /// succeeds and the shed is counted.
    ShedLowest,
}

/// One staged (admitted but not yet drained) item.
#[derive(Debug, Clone)]
pub enum Staged {
    /// An external event from `ingest_async`.
    External(Event),
    /// A captured table change buffered by a trigger, tagged with its
    /// stream name.
    Change(String, ChangeEvent),
}

/// Why [`AdmissionControl::wait_for_work`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// Events are staged and were asked for (not only pushed quietly).
    Work,
    /// The time-out elapsed with nothing staged asked for.
    Tick,
    /// The caller's stop flag is raised.
    Stop,
}

impl Wake {
    /// The `cause` label of `evdb_pump_wakeups_total`.
    pub fn name(self) -> &'static str {
        match self {
            Wake::Work => "work",
            Wake::Tick => "tick",
            Wake::Stop => "stop",
        }
    }
}

/// The staged events plus the consumer's parked flag, under one lock.
struct Buffer {
    items: VecDeque<(i64, Staged)>,
    /// True while a consumer waits on `work`. Raised by `wait_for_work`
    /// after it saw nothing `wanted` staged; lowered by whoever
    /// notifies (so a burst of admits pays for one notify) or by the
    /// consumer itself when it times out.
    parked: bool,
    /// Asked for since the last drain (`admit`, `wake`, a `Block`ed push).
    wanted: bool,
}

/// The bounded staging buffer shared by every push-side producer.
///
/// Depth, peak depth and the shed / rejected / dropped-capture counters
/// are exported through the metrics registry as `evdb_ingest_depth`,
/// `evdb_ingest_shed_total`, `evdb_ingest_rejected_total` and
/// `evdb_ingest_dropped_capture_total` (bridged by the capture stage).
pub struct AdmissionControl {
    capacity: usize,
    policy: OverloadPolicy,
    staged: Mutex<Buffer>,
    /// Signaled by [`drain`](Self::drain) so `Block`ed producers retry.
    space: Condvar,
    /// Signaled by [`admit`](Self::admit) and [`wake`](Self::wake) when
    /// a consumer is parked in [`wait_for_work`](Self::wait_for_work).
    work: Condvar,
    shed: AtomicU64,
    rejected: AtomicU64,
    dropped_capture: AtomicU64,
    peak_depth: AtomicU64,
}

impl AdmissionControl {
    /// A buffer holding at most `capacity` staged events (clamped to at
    /// least 1) under the given policy.
    pub fn new(capacity: usize, policy: OverloadPolicy) -> AdmissionControl {
        AdmissionControl {
            capacity: capacity.max(1),
            policy,
            staged: Mutex::new(Buffer {
                items: VecDeque::new(),
                parked: false,
                wanted: false,
            }),
            space: Condvar::new(),
            work: Condvar::new(),
            shed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            dropped_capture: AtomicU64::new(0),
            peak_depth: AtomicU64::new(0),
        }
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured overload policy.
    pub fn policy(&self) -> OverloadPolicy {
        self.policy
    }

    /// Events currently staged.
    pub fn depth(&self) -> usize {
        self.staged.lock().items.len()
    }

    /// High-water mark of the staged depth since startup.
    pub fn peak_depth(&self) -> u64 {
        self.peak_depth.load(Ordering::Relaxed)
    }

    /// Events shed so far (displaced or turned away under `ShedLowest`).
    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Offers refused with [`Error::Overloaded`] so far.
    pub fn rejected_total(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Staged trigger changes whose capture was deregistered before the
    /// drain could resolve their stream (counted, logged, never silent).
    pub fn dropped_capture_total(&self) -> u64 {
        self.dropped_capture.load(Ordering::Relaxed)
    }

    /// Record `n` staged changes dropped because their capture task was
    /// deregistered between buffering and drain.
    pub fn note_dropped_capture(&self, n: u64) {
        self.dropped_capture.fetch_add(n, Ordering::Relaxed);
    }

    /// Offer one item at `priority` (higher survives longer under
    /// `ShedLowest`; ignored by the other policies) and wake the parked
    /// consumer. Returns `Ok` when the item was admitted *or*
    /// shed-on-arrival (the shed is counted); `Err(Overloaded)` only
    /// under `Reject`.
    pub fn admit(&self, priority: i64, item: Staged) -> Result<()> {
        let staged = self.push_locked(priority, item)?;
        self.notify_if_parked(staged);
        Ok(())
    }

    /// The first half of [`admit`](Self::admit): stage the item under
    /// the overload policy and leave the consumer alone. The caller owes
    /// the second half — it evaluates what is staged itself or calls
    /// [`wake`](Self::wake).
    pub fn push(&self, priority: i64, item: Staged) -> Result<()> {
        self.push_locked(priority, item).map(drop)
    }

    fn push_locked(&self, priority: i64, item: Staged) -> Result<MutexGuard<'_, Buffer>> {
        let mut staged = self.staged.lock();
        if staged.items.len() >= self.capacity {
            match self.policy {
                OverloadPolicy::Block => {
                    // Whoever staged the buffer full may have pushed
                    // quietly and be this very thread: the consumer has
                    // to be asked before we wait on it for space.
                    staged.wanted = true;
                    if staged.parked {
                        staged.parked = false;
                        self.work.notify_all();
                    }
                    while staged.items.len() >= self.capacity {
                        staged = self.space.wait(staged);
                    }
                }
                OverloadPolicy::Reject => {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(Error::Overloaded(format!(
                        "staged ingest buffer full ({} events)",
                        self.capacity
                    )));
                }
                OverloadPolicy::ShedLowest => {
                    self.shed.fetch_add(1, Ordering::Relaxed);
                    // min_by_key keeps the first (oldest) among ties, so
                    // equal-priority displacement is FIFO.
                    let (idx, min_pri) = staged
                        .items
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, (p, _))| *p)
                        .map(|(i, (p, _))| (i, *p))
                        .expect("capacity >= 1 so a full buffer is non-empty");
                    if min_pri < priority {
                        staged.items.remove(idx);
                    } else {
                        // Newcomer ranks no higher than everything
                        // staged: it is the one shed.
                        return Ok(staged);
                    }
                }
            }
        }
        staged.items.push_back((priority, item));
        self.peak_depth
            .fetch_max(staged.items.len() as u64, Ordering::Relaxed);
        Ok(staged)
    }

    /// Ask for what is staged and wake the parked consumer, if there is
    /// one. The flag is lowered here, under the lock, so the admits that
    /// follow before the consumer is scheduled skip the notify; the
    /// syscall itself runs after the lock is released.
    fn notify_if_parked(&self, mut staged: MutexGuard<'_, Buffer>) {
        staged.wanted = !staged.items.is_empty();
        if staged.parked {
            staged.parked = false;
            drop(staged);
            self.work.notify_all();
        }
    }

    /// Park the consumer until staged events are asked for, `stop` is
    /// raised (by a thread that then calls [`wake`](Self::wake)), or
    /// `timeout` elapses — whichever comes first. Returns at once when
    /// work is already staged, so a saturated pump never parks.
    ///
    /// `stop` is read under the buffer lock before every wait: a
    /// stopper that stores the flag and then calls `wake` either finds
    /// the consumer parked (and notifies it) or is seen by this read.
    pub fn wait_for_work(&self, timeout: Duration, stop: &AtomicBool) -> Wake {
        // `None`: the deadline is beyond what `Instant` can hold.
        let deadline = Instant::now().checked_add(timeout);
        let mut staged = self.staged.lock();
        loop {
            let wake = if stop.load(Ordering::SeqCst) {
                Wake::Stop
            } else if staged.wanted && !staged.items.is_empty() {
                Wake::Work
            } else {
                let left = deadline
                    .map_or(Duration::MAX, |d| d.saturating_duration_since(Instant::now()));
                if !left.is_zero() {
                    staged.parked = true;
                    staged = self.work.wait_timeout(staged, left).0;
                    continue;
                }
                Wake::Tick
            };
            staged.parked = false;
            return wake;
        }
    }

    /// Ask for what is staged and wake a consumer parked in
    /// [`wait_for_work`](Self::wait_for_work) without staging anything:
    /// the second half of [`admit`](Self::admit) after a
    /// [`push`](Self::push), or a stop (raise the stop flag first).
    pub fn wake(&self) {
        self.notify_if_parked(self.staged.lock());
    }

    /// Take every staged item in arrival order and wake blocked
    /// producers. The drained sequence is the pipeline's cross-stream
    /// evaluation order.
    pub fn drain(&self) -> Vec<Staged> {
        let mut staged = self.staged.lock();
        staged.wanted = false;
        if staged.items.is_empty() {
            return Vec::new();
        }
        let items: Vec<Staged> = staged.items.drain(..).map(|(_, item)| item).collect();
        drop(staged);
        self.space.notify_all();
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evdb_types::{EventId, Record, Schema, TimestampMs};
    use std::sync::Arc;

    fn ev(id: u64) -> Staged {
        let schema = Schema::of(&[("k", evdb_types::DataType::Int)]);
        Staged::External(Event::new(
            EventId(id),
            "s",
            TimestampMs(0),
            Record::from_iter([evdb_types::Value::Int(id as i64)]),
            Arc::clone(&schema),
        ))
    }

    fn id_of(s: &Staged) -> u64 {
        match s {
            Staged::External(e) => e.id.0,
            Staged::Change(..) => unreachable!(),
        }
    }

    #[test]
    fn reject_turns_overflow_away_and_counts() {
        let ac = AdmissionControl::new(2, OverloadPolicy::Reject);
        ac.admit(0, ev(1)).unwrap();
        ac.admit(0, ev(2)).unwrap();
        let err = ac.admit(0, ev(3)).unwrap_err();
        assert_eq!(err.kind(), "overloaded");
        assert_eq!(ac.rejected_total(), 1);
        assert_eq!(ac.depth(), 2);
        let drained: Vec<u64> = ac.drain().iter().map(id_of).collect();
        assert_eq!(drained, vec![1, 2]);
        // Invariant: offered == drained + shed + rejected.
        assert_eq!(3, drained.len() as u64 + ac.shed_total() + ac.rejected_total());
    }

    #[test]
    fn shed_lowest_displaces_oldest_lowest_priority() {
        let ac = AdmissionControl::new(3, OverloadPolicy::ShedLowest);
        ac.admit(0, ev(1)).unwrap();
        ac.admit(5, ev(2)).unwrap();
        ac.admit(0, ev(3)).unwrap();
        // Higher priority displaces the oldest priority-0 entry (id 1).
        ac.admit(3, ev(4)).unwrap();
        assert_eq!(ac.shed_total(), 1);
        // Equal-or-lower priority newcomer is itself shed.
        ac.admit(0, ev(5)).unwrap();
        assert_eq!(ac.shed_total(), 2);
        let drained: Vec<u64> = ac.drain().iter().map(id_of).collect();
        assert_eq!(drained, vec![2, 3, 4]);
        assert_eq!(5, drained.len() as u64 + ac.shed_total() + ac.rejected_total());
        assert!(ac.peak_depth() <= 3);
    }

    #[test]
    fn block_waits_for_drain() {
        let ac = Arc::new(AdmissionControl::new(1, OverloadPolicy::Block));
        ac.admit(0, ev(1)).unwrap();
        let producer = {
            let ac = Arc::clone(&ac);
            std::thread::spawn(move || ac.admit(0, ev(2)).unwrap())
        };
        // The producer must be parked until the pump drains.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(ac.drain().len(), 1);
        producer.join().unwrap();
        assert_eq!(ac.drain().len(), 1);
        assert_eq!(ac.shed_total() + ac.rejected_total(), 0);
        assert!(ac.peak_depth() <= 1);
    }
    /// Spin until the consumer thread has parked (the flag is only up
    /// while it waits), so the test forces the interleaving it checks.
    fn await_parked(ac: &AdmissionControl) {
        while !ac.staged.lock().parked {
            std::thread::yield_now();
        }
    }

    #[test]
    fn wait_for_work_reports_why_it_returned() {
        let ac = AdmissionControl::new(4, OverloadPolicy::Block);
        let stop = AtomicBool::new(false);
        // Nothing staged: the time-out elapses.
        assert_eq!(ac.wait_for_work(Duration::from_millis(1), &stop), Wake::Tick);
        assert_eq!(ac.wait_for_work(Duration::ZERO, &stop), Wake::Tick);
        // Work staged: returns at once, however long the time-out.
        ac.admit(0, ev(1)).unwrap();
        assert_eq!(ac.wait_for_work(Duration::MAX, &stop), Wake::Work);
        // Stop outranks staged work.
        stop.store(true, Ordering::SeqCst);
        assert_eq!(ac.wait_for_work(Duration::MAX, &stop), Wake::Stop);
        assert!(!ac.staged.lock().parked);
    }

    #[test]
    fn admit_and_wake_rouse_a_parked_consumer() {
        let ac = Arc::new(AdmissionControl::new(4, OverloadPolicy::Block));
        let stop = Arc::new(AtomicBool::new(false));
        let consumer = |ac: &Arc<AdmissionControl>, stop: &Arc<AtomicBool>| {
            let (ac, stop) = (Arc::clone(ac), Arc::clone(stop));
            std::thread::spawn(move || ac.wait_for_work(Duration::MAX, &stop))
        };

        let parked = consumer(&ac, &stop);
        await_parked(&ac);
        ac.admit(0, ev(1)).unwrap();
        // The notifier lowered the flag, so this admit pays no notify.
        assert!(!ac.staged.lock().parked);
        ac.admit(0, ev(2)).unwrap();
        assert_eq!(parked.join().unwrap(), Wake::Work);
        assert_eq!(ac.drain().len(), 2);

        let parked = consumer(&ac, &stop);
        await_parked(&ac);
        // A bare wake with the flag down is a spurious wake-up: the
        // consumer goes back to waiting.
        ac.wake();
        await_parked(&ac);
        stop.store(true, Ordering::SeqCst);
        ac.wake();
        assert_eq!(parked.join().unwrap(), Wake::Stop);
    }

    #[test]
    fn push_stages_without_the_wake_and_wake_is_the_other_half() {
        let ac = Arc::new(AdmissionControl::new(4, OverloadPolicy::Block));
        let stop = Arc::new(AtomicBool::new(false));
        let parked = {
            let (ac, stop) = (Arc::clone(&ac), Arc::clone(&stop));
            std::thread::spawn(move || ac.wait_for_work(Duration::MAX, &stop))
        };
        await_parked(&ac);
        ac.push(0, ev(1)).unwrap();
        // Staged, and the consumer was left alone.
        assert_eq!(ac.depth(), 1);
        assert!(ac.staged.lock().parked);
        ac.wake();
        assert_eq!(parked.join().unwrap(), Wake::Work);
        assert_eq!(ac.drain().len(), 1);
    }

    #[test]
    fn quiet_pushes_stay_with_their_stager_until_asked_for() {
        let ac = AdmissionControl::new(4, OverloadPolicy::Block);
        let stop = AtomicBool::new(false);
        ac.push(0, ev(1)).unwrap();
        // Not work: the consumer times out with the event still staged
        // for the stager.
        assert_eq!(ac.wait_for_work(Duration::from_millis(1), &stop), Wake::Tick);
        assert_eq!(ac.depth(), 1);
        // Asked for by a wake, or by an admit behind it.
        ac.wake();
        assert_eq!(ac.wait_for_work(Duration::MAX, &stop), Wake::Work);
        assert_eq!(ac.drain().len(), 1);
        ac.push(0, ev(2)).unwrap();
        ac.admit(0, ev(3)).unwrap();
        assert_eq!(ac.wait_for_work(Duration::MAX, &stop), Wake::Work);
        let drained: Vec<u64> = ac.drain().iter().map(id_of).collect();
        assert_eq!(drained, [2, 3]);
        // A drain answers the ask, and a bare wake on an empty buffer
        // asks for nothing.
        ac.push(0, ev(4)).unwrap();
        assert_eq!(ac.wait_for_work(Duration::ZERO, &stop), Wake::Tick);
        ac.drain();
        ac.wake();
        ac.push(0, ev(5)).unwrap();
        assert_eq!(ac.wait_for_work(Duration::ZERO, &stop), Wake::Tick);
    }

    #[test]
    fn a_blocked_producer_wakes_the_parked_consumer_before_it_waits() {
        // The tick is far away: only a wake gets the buffer drained.
        const TICK: Duration = Duration::from_secs(30);
        let ac = Arc::new(AdmissionControl::new(1, OverloadPolicy::Block));
        let stop = Arc::new(AtomicBool::new(false));
        let consumer = {
            let (ac, stop) = (Arc::clone(&ac), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut drained = 0;
                while ac.wait_for_work(TICK, &stop) != Wake::Stop {
                    drained += ac.drain().len();
                }
                drained + ac.drain().len()
            })
        };
        await_parked(&ac);
        let t0 = Instant::now();
        // A quiet stager fills the buffer, then offers again before it
        // has run anything: nobody else will ever wake the consumer.
        ac.push(0, ev(1)).unwrap();
        ac.push(0, ev(2)).unwrap();
        assert!(
            t0.elapsed() < TICK / 2,
            "waited for the tick: {:?}",
            t0.elapsed()
        );
        stop.store(true, Ordering::SeqCst);
        ac.wake();
        assert_eq!(consumer.join().unwrap(), 2);
    }
}
