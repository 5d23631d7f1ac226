//! The notification center and the VIRT filter.
//!
//! The tutorial's opening problem is **information overload**: "this
//! problem can be solved by identifying what information is critical …
//! and filtering out non-critical data" (§1, citing Hayes-Roth's VIRT —
//! Valuable Information at the Right Time). [`VirtPolicy`] implements the
//! three standard throttles:
//!
//! * a **severity floor** — below it, nobody is paged;
//! * **duplicate suppression** — an identical (key, severity band)
//!   notification within the suppression window adds no information;
//! * **per-key rate limiting** — at most N notifications per key per
//!   window, whatever their content.
//!
//! Suppressed notifications are counted, never silently lost to
//! observability.
//!
//! `Notify`, the cycle's last stage, wraps the center: it stamps the
//! deliver stage, runs a batch through the filter and gives the
//! end-of-batch signal.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use evdb_types::{Clock, Stage, TimestampMs, Trace};
use parking_lot::{Mutex, RwLock};

use crate::metrics::{bridge, relaxed, Metrics, StageBatch, StageObs};
use crate::server::ServerConfig;

/// An outbound notification.
///
/// `key` and `title` are shared: every hit of one alert rule carries the
/// rule's own strings, so materializing a hit allocates neither.
#[derive(Debug, Clone, PartialEq)]
pub struct Notification {
    /// Correlation key (e.g. `"meter:42"` or `"sym:IBM"`); suppression
    /// and rate limiting are per key.
    pub key: Arc<str>,
    /// Severity, 0.0 (informational) and up.
    pub severity: f64,
    /// Short human-readable headline.
    pub title: Arc<str>,
    /// Detail body.
    pub body: String,
    /// When the condition was detected.
    pub timestamp: TimestampMs,
    /// Trace of the event that produced this notification; the deliver
    /// stage is stamped by [`crate::EventServer::deliver_batch`].
    pub trace: Trace,
    /// True when the triggering event was a retraction delta: the
    /// condition that paged is being *withdrawn* (out-of-order input
    /// revised a window, a speculative emit was taken back). Handlers use
    /// this to cancel the page rather than re-raise it, and the VIRT
    /// filter lets it through duplicate suppression — a cancel always
    /// carries information, even right after the alert it cancels.
    pub is_retraction: bool,
}

/// VIRT filtering parameters.
#[derive(Debug, Clone, Copy)]
pub struct VirtPolicy {
    /// Notifications below this severity are dropped.
    pub min_severity: f64,
    /// Window within which a same-key notification of not-higher
    /// severity is considered a duplicate (ms). 0 disables.
    pub suppression_window_ms: i64,
    /// Max notifications per key per window (0 = unlimited).
    pub max_per_key_per_window: u32,
    /// Rate-limit window length (ms).
    pub rate_window_ms: i64,
}

impl Default for VirtPolicy {
    fn default() -> Self {
        VirtPolicy {
            min_severity: 0.0,
            suppression_window_ms: 0,
            max_per_key_per_window: 0,
            rate_window_ms: 60_000,
        }
    }
}

/// Subscriber callback.
pub type NotificationHandler = Arc<dyn Fn(&Notification) + Send + Sync>;

#[derive(Debug, Default)]
struct KeyState {
    last_emitted: Option<(TimestampMs, f64)>,
    window_start: TimestampMs,
    window_count: u32,
}

/// How many delivered notifications the in-memory log keeps. An embedder
/// that never drains it (handlers are the delivery path; the log is for
/// inspection) holds at most this many; the largest drain in the tree
/// takes ~2k at once.
const DELIVERED_LOG_CAP: usize = 8192;

/// Fan-out point for notifications, guarded by a [`VirtPolicy`].
pub struct NotificationCenter {
    policy: VirtPolicy,
    clock: Arc<dyn Clock>,
    handlers: Mutex<Vec<NotificationHandler>>,
    /// Per-key throttle state; stays empty while the policy has no
    /// throttle that reads it (see [`Self::admit_locked`]).
    state: Mutex<HashMap<Arc<str>, KeyState>>,
    /// The most recent [`DELIVERED_LOG_CAP`] delivered notifications.
    delivered_log: Mutex<VecDeque<Notification>>,
    /// Notifications delivered.
    pub delivered: AtomicU64,
    /// Notifications suppressed by the filter.
    pub suppressed: AtomicU64,
    /// Delivered notifications that were retraction cancels (a subset of
    /// `delivered`).
    pub retracted: AtomicU64,
    /// Delivered notifications the log dropped, oldest first, to stay
    /// within its bound before anybody drained them.
    pub log_overwritten: AtomicU64,
}

impl NotificationCenter {
    /// Create a center with the given policy and clock.
    pub fn new(policy: VirtPolicy, clock: Arc<dyn Clock>) -> NotificationCenter {
        NotificationCenter {
            policy,
            clock,
            handlers: Mutex::new(Vec::new()),
            state: Mutex::new(HashMap::new()),
            delivered_log: Mutex::new(VecDeque::new()),
            delivered: AtomicU64::new(0),
            suppressed: AtomicU64::new(0),
            retracted: AtomicU64::new(0),
            log_overwritten: AtomicU64::new(0),
        }
    }

    /// Register a delivery handler.
    pub fn on_notification(&self, handler: NotificationHandler) {
        self.handlers.lock().push(handler);
    }

    /// Recent delivered notifications, oldest first (kept in memory for
    /// inspection; drained by the caller). The log is a ring: past its
    /// bound the oldest entries are overwritten and counted in
    /// `log_overwritten`.
    pub fn drain_delivered(&self) -> Vec<Notification> {
        std::mem::take(&mut *self.delivered_log.lock()).into()
    }

    /// Offer a notification; returns `true` if it passed the VIRT filter
    /// and was delivered. A batch of one.
    pub fn notify(&self, notification: Notification) -> bool {
        self.notify_batch(vec![notification]) == 1
    }

    /// Offer a whole batch, taking each internal lock once instead of
    /// once per notification (D15). Filter decisions are made in batch
    /// order, and the batch is filtered in place, so the survivors keep
    /// it (and its order) on their way to the handlers and the log;
    /// returns the number delivered.
    pub fn notify_batch(&self, mut batch: Vec<Notification>) -> u64 {
        if batch.is_empty() {
            return 0;
        }
        let now = self.clock.now();
        {
            let mut state = self.state.lock();
            batch.retain(|n| self.admit_locked(&mut state, n, now));
        }
        if batch.is_empty() {
            return 0;
        }
        let count = batch.len() as u64;
        self.delivered.fetch_add(count, Ordering::Relaxed);
        {
            let handlers = self.handlers.lock();
            for n in &batch {
                for h in handlers.iter() {
                    h(n);
                }
            }
        }
        let mut log = self.delivered_log.lock();
        let overflow = (log.len() + batch.len()).saturating_sub(DELIVERED_LOG_CAP);
        if overflow > 0 {
            self.log_overwritten
                .fetch_add(overflow as u64, Ordering::Relaxed);
            // The oldest go: logged entries first, then the head of this batch.
            let from_log = overflow.min(log.len());
            log.drain(..from_log);
            batch.drain(..overflow - from_log);
        }
        log.extend(batch);
        count
    }

    /// Keys with throttle state.
    #[cfg(test)]
    fn tracked_keys(&self) -> usize {
        self.state.lock().len()
    }

    /// The VIRT admission decision, with the key-state lock already
    /// held: updates key state and the `suppressed`/`retracted` counters
    /// and returns whether the notification is delivered. The caller
    /// owns the `delivered` count, handler fan-out and the log.
    fn admit_locked(
        &self,
        state: &mut HashMap<Arc<str>, KeyState>,
        notification: &Notification,
        now: TimestampMs,
    ) -> bool {
        if notification.severity < self.policy.min_severity {
            self.suppressed.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        // A retraction cancels a page that (by construction) already
        // passed the filter. Suppressing the cancel as a "duplicate" of
        // the very alert it withdraws would leave the pager stuck on, so
        // cancels bypass suppression and rate limiting — and leave the
        // key state untouched, so a later genuine re-alert is judged
        // against the original alert, not against the cancel.
        if notification.is_retraction {
            self.retracted.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        // Key state is read only by the two throttles below; with both
        // off (the default policy, which never changes) it would be
        // write-only, so none is kept.
        if self.policy.suppression_window_ms <= 0 && self.policy.max_per_key_per_window == 0 {
            return true;
        }
        let ks = match state.get_mut(&*notification.key) {
            Some(ks) => ks,
            None => state.entry(Arc::clone(&notification.key)).or_default(),
        };

        // Duplicate suppression: same key, not-higher severity,
        // inside the window.
        if self.policy.suppression_window_ms > 0 {
            if let Some((last_ts, last_sev)) = ks.last_emitted {
                if now.since(last_ts) < self.policy.suppression_window_ms
                    && notification.severity <= last_sev
                {
                    self.suppressed.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            }
        }
        // Rate limit.
        if self.policy.max_per_key_per_window > 0 {
            if now.since(ks.window_start) >= self.policy.rate_window_ms {
                ks.window_start = now;
                ks.window_count = 0;
            }
            if ks.window_count >= self.policy.max_per_key_per_window {
                self.suppressed.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            ks.window_count += 1;
        }
        ks.last_emitted = Some((now, notification.severity));
        true
    }
}

/// An end-of-batch callback ([`crate::EventServer::on_batch_end`]).
pub type BatchEndHook = Arc<dyn Fn() + Send + Sync>;

/// The notify stage (§2.2.d), last in the cycle: the VIRT-filtered
/// [`NotificationCenter`] and the end-of-batch hooks. It takes the
/// notifications evaluation handed forward; past it there are only the
/// subscribers' own callbacks.
pub(crate) struct Notify {
    pub(crate) center: Arc<NotificationCenter>,
    metrics: Arc<Metrics>,
    stage_obs: StageObs,
    /// Called after each batch's subscribers, on the thread that ran them.
    hooks: RwLock<Vec<BatchEndHook>>,
}

impl Notify {
    pub(crate) fn new(metrics: &Arc<Metrics>, config: &ServerConfig) -> Notify {
        let (registry, clock) = (&config.registry, Arc::clone(&config.clock));
        let center = Arc::new(NotificationCenter::new(config.virt, clock));
        if registry.is_enabled() {
            bridge(registry, &center, &[
                ("evdb_notify_delivered", |nc| relaxed(&nc.delivered)),
                ("evdb_notify_suppressed", |nc| relaxed(&nc.suppressed)),
                ("evdb_notify_retracted_total", |nc| relaxed(&nc.retracted)),
                ("evdb_notify_log_overwritten_total", |nc| relaxed(&nc.log_overwritten)),
            ]);
        }
        Notify {
            center,
            metrics: Arc::clone(metrics),
            stage_obs: StageObs::bind(registry),
            hooks: RwLock::new(Vec::new()),
        }
    }

    /// Deliver a whole batch of pending notifications through the VIRT
    /// filter; see [`crate::EventServer::deliver_batch`].
    pub(crate) fn deliver_batch(&self, mut batch: Vec<Notification>) -> u64 {
        if batch.is_empty() {
            return 0;
        }
        if self.stage_obs.enabled {
            let now = self.center.clock.now();
            let mut spans = StageBatch::default();
            for n in &mut batch {
                n.trace.stamp(Stage::Deliver, now);
                let span = n.trace.span_ms(Stage::Capture, Stage::Deliver).unwrap_or(0) as f64;
                spans.push(Stage::Deliver, span);
            }
            self.stage_obs.flush(&mut spans);
        }
        let delivered = self.center.notify_batch(batch);
        let (metrics, center, order) = (&self.metrics, &self.center, Ordering::Relaxed);
        metrics.notifications.store(center.delivered.load(order), order);
        metrics.suppressed.store(center.suppressed.load(order), order);
        delivered
    }

    /// Register an end-of-batch callback.
    pub(crate) fn on_batch_end(&self, hook: BatchEndHook) {
        self.hooks.write().push(hook);
    }

    /// Give subscribers the end-of-batch signal.
    pub(crate) fn end_batch(&self) {
        for hook in self.hooks.read().iter() {
            hook();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::tests::server;
    use crate::server::{CaptureMechanism, ServerConfig};
    use crate::EventServer;
    use evdb_types::{DataType, Record, Schema, SimClock, Value};

    fn notif(key: &str, sev: f64) -> Notification {
        Notification {
            key: key.into(),
            severity: sev,
            title: "t".into(),
            body: "b".into(),
            timestamp: TimestampMs(0),
            trace: Trace::default(),
            is_retraction: false,
        }
    }

    #[test]
    fn severity_floor() {
        let clock = SimClock::new(TimestampMs(0));
        let nc = NotificationCenter::new(
            VirtPolicy {
                min_severity: 1.0,
                ..Default::default()
            },
            clock,
        );
        assert!(!nc.notify(notif("k", 0.5)));
        assert!(nc.notify(notif("k", 1.5)));
        assert_eq!(nc.drain_delivered().len(), 1);
    }

    #[test]
    fn delivered_log_keeps_the_most_recent() {
        use std::sync::atomic::Ordering;
        let nc = NotificationCenter::new(VirtPolicy::default(), SimClock::new(TimestampMs(0)));
        let numbered = |range: std::ops::Range<usize>| -> Vec<Notification> {
            range.map(|i| notif(&i.to_string(), 1.0)).collect()
        };
        let keys = |log: Vec<Notification>| -> Vec<usize> {
            log.iter().map(|n| n.key.parse().unwrap()).collect()
        };
        // Undrained, the log stops growing at its bound; handlers and
        // the delivered count still see everything.
        nc.notify_batch(numbered(0..DELIVERED_LOG_CAP - 1));
        assert_eq!(nc.log_overwritten.load(Ordering::Relaxed), 0);
        nc.notify_batch(numbered(DELIVERED_LOG_CAP - 1..DELIVERED_LOG_CAP + 10));
        assert_eq!(nc.log_overwritten.load(Ordering::Relaxed), 10);
        assert_eq!(
            keys(nc.drain_delivered()),
            (10..DELIVERED_LOG_CAP + 10).collect::<Vec<_>>()
        );
        assert!(nc.drain_delivered().is_empty());
        // One batch larger than the bound keeps its tail.
        nc.notify_batch(numbered(0..2 * DELIVERED_LOG_CAP));
        assert_eq!(
            keys(nc.drain_delivered()),
            (DELIVERED_LOG_CAP..2 * DELIVERED_LOG_CAP).collect::<Vec<_>>()
        );
        assert_eq!(
            nc.delivered.load(Ordering::Relaxed),
            3 * DELIVERED_LOG_CAP as u64 + 10
        );
        assert_eq!(
            nc.log_overwritten.load(Ordering::Relaxed),
            DELIVERED_LOG_CAP as u64 + 10
        );
    }

    #[test]
    fn duplicate_suppression_lets_escalations_through() {
        let clock = SimClock::new(TimestampMs(0));
        let nc = NotificationCenter::new(
            VirtPolicy {
                suppression_window_ms: 1_000,
                ..Default::default()
            },
            clock.clone(),
        );
        assert!(nc.notify(notif("k", 1.0)));
        assert!(!nc.notify(notif("k", 1.0))); // duplicate
        assert!(nc.notify(notif("k", 2.0))); // escalation passes
        assert!(nc.notify(notif("other", 1.0))); // different key passes
        clock.advance(1_001);
        assert!(nc.notify(notif("k", 1.0))); // window expired
    }

    #[test]
    fn per_key_rate_limit() {
        let clock = SimClock::new(TimestampMs(0));
        let nc = NotificationCenter::new(
            VirtPolicy {
                max_per_key_per_window: 2,
                rate_window_ms: 1_000,
                ..Default::default()
            },
            clock.clone(),
        );
        // Escalating severities dodge duplicate suppression (disabled
        // anyway) but hit the rate limit.
        assert!(nc.notify(notif("k", 1.0)));
        assert!(nc.notify(notif("k", 2.0)));
        assert!(!nc.notify(notif("k", 3.0)));
        clock.advance(1_000);
        assert!(nc.notify(notif("k", 4.0)));
        use std::sync::atomic::Ordering;
        assert_eq!(nc.delivered.load(Ordering::Relaxed), 3);
        assert_eq!(nc.suppressed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn batch_filtering_matches_sequential() {
        use std::sync::atomic::Ordering;
        let throttled = VirtPolicy {
            min_severity: 1.0,
            suppression_window_ms: 1_000,
            max_per_key_per_window: 2,
            rate_window_ms: 1_000,
        };
        let mixed = || {
            let mut cancel = notif("a", 2.0);
            cancel.is_retraction = true;
            vec![
                notif("a", 2.0),
                notif("a", 2.0), // duplicate
                notif("a", 3.0), // escalation
                notif("a", 4.0), // rate-limited (2 per window)
                cancel,          // retraction bypasses both throttles
                notif("b", 0.5), // under the severity floor
                notif("b", 1.5),
            ]
        };
        // The throttled policy, and the default one (no throttle, so no
        // key state) that delivers everything.
        for (policy, want) in [(throttled, 4), (VirtPolicy::default(), 7)] {
            let seq = NotificationCenter::new(policy, SimClock::new(TimestampMs(0)));
            for n in mixed() {
                seq.notify(n);
            }
            let bat = NotificationCenter::new(policy, SimClock::new(TimestampMs(0)));
            let delivered = bat.notify_batch(mixed());
            assert_eq!(delivered, want);
            assert_eq!(delivered, seq.delivered.load(Ordering::Relaxed));
            assert_eq!(bat.drain_delivered(), seq.drain_delivered());
            assert_eq!(
                bat.suppressed.load(Ordering::Relaxed),
                seq.suppressed.load(Ordering::Relaxed)
            );
            assert_eq!(
                bat.retracted.load(Ordering::Relaxed),
                seq.retracted.load(Ordering::Relaxed)
            );
            assert_eq!(bat.notify_batch(Vec::new()), 0);
        }
    }

    #[test]
    fn default_policy_keeps_no_key_state() {
        use std::sync::atomic::Ordering;
        let nc = NotificationCenter::new(VirtPolicy::default(), SimClock::new(TimestampMs(0)));
        let batch: Vec<_> = (0..100).map(|i| notif(&format!("k{}", i % 10), 1.0)).collect();
        assert_eq!(nc.notify_batch(batch), 100);
        assert_eq!(nc.drain_delivered().len(), 100);
        assert_eq!(nc.suppressed.load(Ordering::Relaxed), 0);
        assert_eq!(nc.tracked_keys(), 0);
        // A throttle that reads key state keeps one entry per key.
        let nc = NotificationCenter::new(
            VirtPolicy {
                max_per_key_per_window: 1_000,
                ..Default::default()
            },
            SimClock::new(TimestampMs(0)),
        );
        let batch: Vec<_> = (0..100).map(|i| notif(&format!("k{}", i % 10), 1.0)).collect();
        assert_eq!(nc.notify_batch(batch), 100);
        assert_eq!(nc.tracked_keys(), 10);
    }

    #[test]
    fn batch_handlers_fire_per_delivery() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let nc = NotificationCenter::new(VirtPolicy::default(), SimClock::new(TimestampMs(0)));
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&n);
        nc.on_notification(Arc::new(move |_| {
            n2.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(nc.notify_batch(vec![notif("a", 1.0), notif("b", 1.0)]), 2);
        assert_eq!(n.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn retraction_cancel_bypasses_duplicate_suppression() {
        use std::sync::atomic::Ordering;
        let clock = SimClock::new(TimestampMs(0));
        let nc = NotificationCenter::new(
            VirtPolicy {
                suppression_window_ms: 1_000,
                max_per_key_per_window: 1,
                rate_window_ms: 1_000,
                ..Default::default()
            },
            clock,
        );
        assert!(nc.notify(notif("k", 2.0)));
        // Same key + severity, inside the window: the retraction would be
        // swallowed as a duplicate (and by the rate limit) — but a cancel
        // must reach the pager.
        let mut cancel = notif("k", 2.0);
        cancel.is_retraction = true;
        assert!(nc.notify(cancel));
        assert_eq!(nc.retracted.load(Ordering::Relaxed), 1);
        assert_eq!(nc.delivered.load(Ordering::Relaxed), 2);
        // The cancel did not reset key state: a genuine same-severity
        // re-alert right after is still a duplicate of the original.
        assert!(!nc.notify(notif("k", 2.0)));
        // Retractions still respect the severity floor.
        let nc = NotificationCenter::new(
            VirtPolicy {
                min_severity: 5.0,
                ..Default::default()
            },
            SimClock::new(TimestampMs(0)),
        );
        let mut low = notif("k", 1.0);
        low.is_retraction = true;
        assert!(!nc.notify(low));
        assert_eq!(nc.retracted.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn handlers_fire_per_delivery() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let clock = SimClock::new(TimestampMs(0));
        let nc = NotificationCenter::new(VirtPolicy::default(), clock);
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&n);
        nc.on_notification(Arc::new(move |_| {
            n2.fetch_add(1, Ordering::SeqCst);
        }));
        nc.notify(notif("a", 1.0));
        nc.notify(notif("b", 1.0));
        assert_eq!(n.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn virt_policy_suppresses_duplicates_end_to_end() {
        let clock = SimClock::new(TimestampMs(0));
        let s = EventServer::in_memory(ServerConfig {
            clock: clock.clone(),
            virt: VirtPolicy {
                suppression_window_ms: 10_000,
                ..Default::default()
            },
            ..Default::default()
        })
        .unwrap();
        s.create_stream("t", Schema::of(&[("v", DataType::Float)]))
            .unwrap();
        s.add_alert_rule("hot", "t", "v > 10", 1.0, None).unwrap();
        let mut total = 0;
        for _ in 0..5 {
            total += s
                .ingest("t", clock.now(), Record::from_iter([Value::Float(50.0)]))
                .unwrap()
                .notified;
        }
        assert_eq!(total, 1); // four suppressed
        assert_eq!(s.metrics().snapshot().suppressed, 4);
    }

    #[test]
    fn notifications_persist_to_a_queue() {
        let (s, _clock) = server();
        let stream = s
            .capture_table("orders", CaptureMechanism::Trigger)
            .unwrap();
        s.add_alert_rule("big", &stream, "amt > 100", 2.5, Some("oid"))
            .unwrap();
        s.persist_notifications("alerts").unwrap();
        s.queues().subscribe("alerts", "oncall").unwrap();

        s.db()
            .insert(
                "orders",
                Record::from_iter([Value::Int(1), Value::Float(500.0)]),
            )
            .unwrap();
        s.db()
            .insert(
                "orders",
                Record::from_iter([Value::Int(2), Value::Float(5.0)]),
            )
            .unwrap();
        s.pump().unwrap();

        let d = s.queues().dequeue("alerts", "oncall", 10).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].message.payload.get(1), Some(&Value::Float(2.5)));
        assert_eq!(d[0].message.source, "notification-center");
    }
}
