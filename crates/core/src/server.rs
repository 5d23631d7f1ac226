//! The [`EventServer`] facade: construction, wiring and the
//! registration API.
//!
//! Composition (the tutorial's architecture): a storage engine with
//! journal and triggers, queue staging areas, a pub/sub broker, a
//! continuous-query runtime, access control with an audit trail, metrics
//! — and the one cycle's stages, each owning its locks in its own module:
//! capture (`capture.rs`) hands [`Drained`] events to evaluate
//! (`evaluate.rs`), which hands notifications and the first error to
//! notify (`notify.rs`); `cycle.rs` runs them one cycle at a time. No
//! stage holds a handle to a stage after it, so "the gate, then capture,
//! then evaluate, then notify" is the lock order by ownership (DESIGN.md
//! §6).

use std::path::Path;
use std::sync::Arc;

use evdb_analytics::detector::UpdatePolicy;
use evdb_analytics::ExpectationModel;
use evdb_cq::aggregate::AggMode;
use evdb_cq::runtime::Subscriber;
use evdb_cq::StreamRuntime;
use evdb_expr::Expr;
use evdb_obs::Registry;
use evdb_queue::{Delivery, QueueConfig, QueueManager};
use evdb_rules::Broker;
use evdb_storage::{Database, DbOptions, SegmentStore};
use evdb_types::{Clock, Error, Event, Record, Result, Schema, SystemClock, TimestampMs, Value};

use crate::admission::{AdmissionControl, OverloadPolicy};
use crate::capture::Capture;
use crate::cycle::Cycle;
use crate::evaluate::Evaluate;
use crate::history::{History, HistoryConfig};
use crate::metrics::{Metrics, StageBatch, StageObs};
use crate::notify::{Notification, NotificationCenter, NotificationHandler, Notify, VirtPolicy};
use crate::security::{AccessControl, Principal, Privilege};

pub use crate::capture::{CaptureMechanism, Drained};
pub use crate::evaluate::EvalScratch;
pub use crate::notify::BatchEndHook;

/// Statistics returned by one [`EventServer::pump`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpStats {
    /// Change events captured this pump.
    pub captured: u64,
    /// Derived events produced by continuous queries.
    pub derived: u64,
    /// Notifications delivered (post-VIRT).
    pub notified: u64,
}

/// Configuration for an [`EventServer`].
pub struct ServerConfig {
    /// VIRT notification policy.
    pub virt: VirtPolicy,
    /// Aggregation execution mode for CQL queries.
    pub agg_mode: AggMode,
    /// Allowed event-time out-of-orderness for windows (ms).
    pub lateness_ms: i64,
    /// Engine clock.
    pub clock: Arc<dyn Clock>,
    /// Unified metrics registry shared by every layer (storage, queues,
    /// rules, CQ, stages). Enabled by default; swap in
    /// `Registry::disabled()` to compile the pipeline's instrumentation
    /// down to no-ops (experiment E13 bounds the difference).
    pub registry: Arc<Registry>,
    /// Capacity bound for the staged ingest buffer shared by trigger
    /// captures and [`EventServer::ingest_async`]. The default is large
    /// enough that well-provisioned workloads never notice it, but it is
    /// a real bound: memory stops growing here under overload.
    pub ingest_capacity: usize,
    /// What happens to producers when the staged buffer is full
    /// (DESIGN.md D10). Default: [`OverloadPolicy::Block`].
    pub overload: OverloadPolicy,
    /// Capacity of the replay-dedup window keyed by (stream, event id):
    /// duplicate deliveries — a re-mined WAL prefix after recovery, an
    /// at-least-once capture adapter retrying — are dropped and counted
    /// instead of double-counting in windows (DESIGN.md D12). `0`
    /// disables dedup.
    pub dedup_capacity: usize,
}

/// Default [`ServerConfig::ingest_capacity`]: 2^20 staged events.
pub const DEFAULT_INGEST_CAPACITY: usize = 1 << 20;

/// Default [`ServerConfig::dedup_capacity`]: 2^16 recently-seen ids.
pub const DEFAULT_DEDUP_CAPACITY: usize = 1 << 16;

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            virt: VirtPolicy::default(),
            agg_mode: AggMode::Incremental,
            lateness_ms: 0,
            clock: Arc::new(SystemClock),
            registry: Arc::new(Registry::new()),
            ingest_capacity: DEFAULT_INGEST_CAPACITY,
            overload: OverloadPolicy::default(),
            dedup_capacity: DEFAULT_DEDUP_CAPACITY,
        }
    }
}

fn db_options(config: &ServerConfig) -> DbOptions {
    DbOptions {
        clock: Arc::clone(&config.clock),
        registry: Arc::clone(&config.registry),
        ..Default::default()
    }
}

/// The event-processing server.
///
/// # Example
///
/// ```
/// use evdb_core::server::ServerConfig;
/// use evdb_core::{CaptureMechanism, EventServer};
/// use evdb_types::{DataType, Record, Schema, Value};
///
/// let server = EventServer::in_memory(ServerConfig::default()).unwrap();
/// server.db().create_table(
///     "orders",
///     Schema::of(&[("oid", DataType::Int), ("amount", DataType::Float)]),
///     "oid",
/// ).unwrap();
///
/// let stream = server.capture_table("orders", CaptureMechanism::Trigger).unwrap();
/// server.add_alert_rule("large", &stream, "amount > 1000", 2.0, None).unwrap();
///
/// server.db().insert("orders",
///     Record::from_iter([Value::Int(1), Value::Float(5_000.0)])).unwrap();
/// let stats = server.pump().unwrap();
/// assert_eq!((stats.captured, stats.notified), (1, 1));
/// ```
pub struct EventServer {
    db: Arc<Database>,
    queues: Arc<QueueManager>,
    broker: Broker,
    runtime: Arc<StreamRuntime>,
    access: AccessControl,
    metrics: Arc<Metrics>,
    registry: Arc<Registry>,
    /// Stage samples of the cycle (`cycle.rs`).
    pub(crate) stage_obs: StageObs,
    agg_mode: AggMode,
    pub(crate) capture: Capture,
    pub(crate) evaluate: Evaluate,
    pub(crate) notify: Notify,
    pub(crate) cycle: Cycle,
}

impl EventServer {
    /// Ephemeral server (in-memory journal).
    pub fn in_memory(config: ServerConfig) -> Result<EventServer> {
        let db = Database::in_memory(db_options(&config))?;
        Self::from_db(db, config)
    }

    /// Durable server on a directory (runs recovery).
    pub fn open(dir: impl AsRef<Path>, config: ServerConfig) -> Result<EventServer> {
        let db = Database::open(dir, db_options(&config))?;
        Self::from_db(db, config)
    }

    fn from_db(db: Arc<Database>, config: ServerConfig) -> Result<EventServer> {
        let queues = Arc::new(QueueManager::attach(Arc::clone(&db))?);
        let access = AccessControl::attach(Arc::clone(&db))?;
        let registry = &config.registry;
        let mut rt = StreamRuntime::new(config.lateness_ms);
        rt.bind_obs(registry);
        if config.dedup_capacity > 0 {
            rt.enable_dedup(config.dedup_capacity);
        }
        let runtime = Arc::new(rt);
        let metrics = Arc::new(Metrics::default());
        Ok(EventServer {
            capture: Capture::new(&db, &runtime, &metrics, &config),
            evaluate: Evaluate::new(&runtime, &metrics, registry),
            notify: Notify::new(&metrics, &config),
            cycle: Cycle::new(registry),
            stage_obs: StageObs::bind(registry),
            queues,
            broker: Broker::new(),
            runtime,
            access,
            metrics,
            agg_mode: config.agg_mode,
            registry: config.registry,
            db,
        })
    }

    // ---- component access -------------------------------------------------

    /// The underlying database.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The queue manager.
    pub fn queues(&self) -> &Arc<QueueManager> {
        &self.queues
    }

    /// The pub/sub broker.
    pub fn broker(&self) -> &Broker {
        &self.broker
    }

    /// The stream runtime.
    pub fn runtime(&self) -> &StreamRuntime {
        &self.runtime
    }

    /// The notification center.
    pub fn notifications(&self) -> &Arc<NotificationCenter> {
        &self.notify.center
    }

    /// Access control / audit.
    pub fn access(&self) -> &AccessControl {
        &self.access
    }

    /// Engine metrics.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The unified metrics registry (render with
    /// [`Registry::render`], diff with [`Registry::snapshot`]).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The admission-control gate on the staged ingest path: capacity,
    /// policy, live depth and the shed / rejected / dropped-capture
    /// accounting.
    pub fn admission(&self) -> &Arc<AdmissionControl> {
        &self.capture.admission
    }

    /// Current engine time.
    pub fn now(&self) -> TimestampMs {
        self.db.now()
    }

    // ---- capture ------------------------------------------------------------

    /// Capture a table's changes into stream `"<table>_changes"` using
    /// the given mechanism. Returns the stream name.
    pub fn capture_table(&self, table: &str, mechanism: CaptureMechanism) -> Result<String> {
        self.capture.capture_table(table, mechanism)
    }

    /// Deregister a capture task (the stream itself stays: registered
    /// rules and queries keep their schema). For trigger captures the
    /// row trigger is dropped, so subsequent writes stop staging
    /// changes; changes already staged when the capture goes away are
    /// counted as dropped captures at the next drain (never silently
    /// discarded).
    pub fn remove_capture(&self, stream: &str) -> Result<()> {
        self.capture.remove_capture(stream)
    }

    /// Set a stream's shed priority (default 0): under
    /// [`OverloadPolicy::ShedLowest`], staged events from
    /// lower-priority streams are displaced first when the buffer is
    /// full. Applies to trigger captures and `ingest_async` alike.
    pub fn set_ingest_priority(&self, stream: &str, priority: i64) -> Result<()> {
        self.capture.set_priority(stream, priority)
    }

    /// Declare a free-standing stream fed by [`EventServer::ingest`]
    /// (external feeds: market data, sensor telemetry).
    pub fn create_stream(&self, name: &str, schema: Arc<Schema>) -> Result<()> {
        self.runtime.create_stream(name, schema)
    }

    /// Stage one external event for the next pump instead of evaluating
    /// it inline. This is the producer-side entry point for background
    /// pumping: producers validate and enqueue,
    /// the pump evaluates. Counted as captured when drained.
    /// Staging is subject to admission control: when the staged buffer
    /// is at capacity the configured [`OverloadPolicy`] applies (block,
    /// `Err(Overloaded)`, or shed-lowest).
    pub fn ingest_async(&self, stream: &str, timestamp: TimestampMs, payload: Record) -> Result<()> {
        self.capture.offer(stream, timestamp, payload, false)
    }

    /// Take every pending captured change out as a ready-to-evaluate
    /// event, in capture order, without evaluating anything — the first
    /// step of every cycle: the staged buffer (no capture-task lock
    /// unless a trigger change is staged), then on a `maintenance` drain
    /// one poll of every journal-mined and query-poll capture. Capture
    /// metrics are recorded here; a failed poll costs the cycle nothing
    /// else: the first poll error comes beside what the rest gave.
    pub fn drain(&self, maintenance: bool) -> Drained {
        self.capture.drain(maintenance, true)
    }

    // ---- historical event store (D14) ------------------------------------------

    /// Enable the historical event store under `root`: from now on every
    /// event that reaches [`EventServer::evaluate_events`] is also
    /// appended to its stream's columnar segment store, queryable and
    /// replayable after the fact. Errors if history
    /// is already enabled. Re-opening an existing root runs segment
    /// recovery per stream.
    pub fn enable_history(
        &self,
        root: impl AsRef<Path>,
        config: HistoryConfig,
    ) -> Result<Arc<History>> {
        self.evaluate.history.install(History::open(root, config)?)
    }

    /// The historical store, if [`enable_history`](Self::enable_history)
    /// has run.
    pub fn history(&self) -> Option<Arc<History>> {
        self.evaluate.history.get()
    }

    /// `stream`'s history store (recovered on first touch) and schema.
    fn history_of(&self, stream: &str) -> Result<(Arc<SegmentStore>, Arc<Schema>)> {
        let history = self
            .history()
            .ok_or_else(|| Error::Invalid("history is not enabled".into()))?;
        let schema = self.runtime.stream_schema(stream)?;
        Ok((history.store_or_recover(stream, &schema)?, schema))
    }

    /// REPLAY a stream's history in original arrival order, as
    /// reconstructed events (original ids, timestamps and retraction
    /// flags). `from_seq..=to_seq` are history sequence numbers as
    /// returned by the store; `(0, u64::MAX)` replays everything.
    pub fn replay(&self, stream: &str, from_seq: u64, to_seq: u64) -> Result<Vec<Event>> {
        let (store, schema) = self.history_of(stream)?;
        Ok(History::to_events(
            stream,
            &schema,
            store.replay(from_seq, to_seq)?,
        ))
    }

    /// REPLAY a stream's history back *through the continuous-query
    /// runtime*: each historical event is re-fed in arrival order via
    /// the dedup-bypassing replay path (original ids legitimately
    /// reappear here), re-driving windows and subscribers. Alert rules
    /// and detectors are not re-run — replay reconstructs derived state,
    /// it does not re-page anyone. Returns (events replayed, derived
    /// events produced), or the first event's error once the whole range
    /// has been fed.
    pub fn replay_into_runtime(
        &self,
        stream: &str,
        from_seq: u64,
        to_seq: u64,
    ) -> Result<(u64, u64)> {
        let events = self.replay(stream, from_seq, to_seq)?;
        let derived = self.evaluate.replay(&events)?;
        Ok((events.len() as u64, derived))
    }

    /// Historical query: events of `stream` whose payload satisfies
    /// `predicate`, in arrival order, pruned by segment- and zone-level
    /// statistics (check `evdb_store_*_pruned_total` to see the savings).
    pub fn query_history(&self, stream: &str, predicate: &str) -> Result<Vec<Event>> {
        let (store, schema) = self.history_of(stream)?;
        let expr = evdb_expr::parse(predicate)?;
        Ok(History::to_events(stream, &schema, store.query(&expr)?))
    }

    /// Recover a capture whose journal cursor lost history to a
    /// checkpoint (`Error::TruncatedHistory` from a strict poll): the
    /// capture's baseline is reset from current table state —
    /// `QuerySnapshot::rebaseline` for query-poll captures, cursor
    /// `resync` for journal miners — and then the stream's history from
    /// `from_seq` is replayed through the CQ runtime to rebuild derived
    /// state. Returns the number of events replayed.
    pub fn rebaseline_by_replay(&self, stream: &str, from_seq: u64) -> Result<u64> {
        self.capture.rebaseline(stream)?;
        let (replayed, _) = self.replay_into_runtime(stream, from_seq, u64::MAX)?;
        Ok(replayed)
    }

    // ---- continuous queries ----------------------------------------------------

    /// Register a CQL continuous query. The `FROM` stream must exist.
    /// The query's `EMIT` clause selects its consistency level (D12);
    /// the default is retraction-free watermark gating.
    pub fn register_cql(&self, name: &str, cql: &str) -> Result<()> {
        let q = evdb_cq::cql::parse_query(cql)?;
        let input = self.runtime.stream_schema(&q.from)?;
        let pipeline = evdb_cq::cql::compile(&q, &input, self.agg_mode)?;
        self.runtime
            .register_query_with(name, &q.from, pipeline, q.consistency)
    }

    /// Subscribe to a query's derived events.
    pub fn on_query(&self, name: &str, subscriber: Subscriber) -> Result<()> {
        self.runtime.subscribe(name, subscriber)
    }

    /// Subscribe to a query's derived rows with the delta sign made
    /// explicit: the callback receives `(row, is_retraction)`. Under
    /// `EMIT SPECULATIVE` a retraction withdraws a previously delivered
    /// row; under the default watermark level `is_retraction` is always
    /// false (asserted by the order-equivalence suite).
    pub fn on_query_updates(
        &self,
        name: &str,
        subscriber: impl Fn(&Record, bool) + Send + Sync + 'static,
    ) -> Result<()> {
        self.runtime.subscribe(
            name,
            Arc::new(move |event: &Event| subscriber(&event.payload, event.is_retraction())),
        )
    }

    /// Register an end-of-batch callback: it runs after each batch's
    /// subscriber callbacks — query subscribers in
    /// [`evaluate_events`](Self::evaluate_events), notification handlers
    /// in [`deliver_batch`](Self::deliver_batch) — on the thread that ran
    /// them. A subscriber that only buffers per row (the server's hub)
    /// does its per-batch work here: one socket write per batch, not per
    /// row.
    pub fn on_batch_end(&self, hook: BatchEndHook) {
        self.notify.on_batch_end(hook);
    }

    // ---- alert rules and detectors -------------------------------------------------

    /// Add an alert rule: when an event on `stream` satisfies
    /// `predicate`, a notification of `severity` fires. The optional
    /// `key_field` scopes VIRT suppression (e.g. per symbol / per
    /// sensor). Returns a rule id for removal.
    pub fn add_alert_rule(
        &self,
        name: &str,
        stream: &str,
        predicate: &str,
        severity: f64,
        key_field: Option<&str>,
    ) -> Result<u64> {
        self.evaluate.add_alert_rule(name, stream, predicate, severity, key_field)
    }

    /// Remove an alert rule.
    pub fn remove_alert_rule(&self, stream: &str, id: u64) -> Result<()> {
        self.evaluate.remove_alert_rule(stream, id)
    }

    /// Attach a grouped deviation detector to a stream: `field` is the
    /// observed value; when `key_field` is given, each distinct key gets
    /// its own model instance (per-meter, per-symbol expectations).
    pub fn add_detector<F>(
        &self,
        name: &str,
        stream: &str,
        field: &str,
        key_field: Option<&str>,
        policy: UpdatePolicy,
        model_factory: F,
    ) -> Result<()>
    where
        F: Fn() -> Box<dyn ExpectationModel> + Send + 'static,
    {
        self.add_detector_when(name, stream, field, key_field, None, policy, model_factory)
    }

    /// [`add_detector`](Self::add_detector) with an optional WHEN
    /// predicate over the stream's records: only events satisfying the
    /// condition feed the expectation model. The predicate is bound and
    /// compiled to bytecode once, here.
    #[allow(clippy::too_many_arguments)]
    pub fn add_detector_when<F>(
        &self,
        name: &str,
        stream: &str,
        field: &str,
        key_field: Option<&str>,
        condition: Option<&Expr>,
        policy: UpdatePolicy,
        model_factory: F,
    ) -> Result<()>
    where
        F: Fn() -> Box<dyn ExpectationModel> + Send + 'static,
    {
        self.evaluate.add_detector(name, stream, field, key_field, condition, policy, model_factory)
    }

    // ---- notifications, queues and topics (guarded variants audit) -------------------

    /// Register a notification handler.
    pub fn on_notification(&self, handler: NotificationHandler) {
        self.notify.center.on_notification(handler);
    }

    /// Persist every delivered notification as a message on `queue`
    /// (created if needed) — notifications *are* messages in the paper's
    /// architecture, so alert consumers get the queue layer's
    /// recoverability, fan-out and auditability. Returns the queue's
    /// payload schema.
    pub fn persist_notifications(&self, queue: &str) -> Result<Arc<Schema>> {
        let schema = Schema::of(&[
            ("key", evdb_types::DataType::Str),
            ("severity", evdb_types::DataType::Float),
            ("title", evdb_types::DataType::Str),
            ("body", evdb_types::DataType::Str),
            ("ts", evdb_types::DataType::Timestamp),
        ]);
        if self.queues.queue_schema(queue).is_err() {
            self.queues
                .create_queue(queue, Arc::clone(&schema), QueueConfig::default())?;
        }
        let queues = Arc::clone(&self.queues);
        let qname = queue.to_string();
        self.on_notification(Arc::new(move |n| {
            // Enqueue failures must not unwind into the notifier; they
            // surface through queue metrics/depth instead.
            let _ = queues.enqueue(
                &qname,
                Record::from_iter([
                    Value::Str(Arc::clone(&n.key)),
                    Value::Float(n.severity),
                    Value::Str(Arc::clone(&n.title)),
                    Value::from(n.body.as_str()),
                    Value::Timestamp(n.timestamp),
                ]),
                "notification-center",
            );
        }));
        Ok(schema)
    }

    /// Create a queue.
    pub fn create_queue(&self, name: &str, schema: Arc<Schema>, config: QueueConfig) -> Result<()> {
        self.queues.create_queue(name, schema, config)
    }

    /// Enqueue as a principal: checked against `queue:<name>` Write and
    /// audited.
    pub fn enqueue_as(&self, principal: &Principal, queue: &str, payload: Record) -> Result<u64> {
        self.access
            .check(principal, &format!("queue:{queue}"), Privilege::Write)?;
        self.queues.enqueue(queue, payload, &principal.name)
    }

    /// Dequeue as a principal: checked against `queue:<name>` Read.
    pub fn dequeue_as(
        &self,
        principal: &Principal,
        queue: &str,
        group: &str,
        max: usize,
    ) -> Result<Vec<Delivery>> {
        self.access
            .check(principal, &format!("queue:{queue}"), Privilege::Read)?;
        self.queues.dequeue(queue, group, max)
    }

    // ---- the stages, by hand ----------------------------------------------------------

    /// Evaluate a batch of routed events — continuous queries, alert
    /// rules, detectors — *collecting* its notifications instead of
    /// delivering them: the one evaluation path (D15). The cycle calls it
    /// on each drained batch, [`ingest`](Self::ingest) on a batch of one;
    /// delivery is the caller's next step
    /// ([`deliver_batch`](Self::deliver_batch)), the notify stage's.
    ///
    /// The outcome does not depend on how the input was cut into
    /// batches (`tests/prop_chunking.rs`, DESIGN.md D15): history, dedup
    /// and detectors advance per event in arrival order, queries and
    /// rules amortize per batch. Continuous-query subscribers run
    /// query-major; notifications are appended to `notes` in event order
    /// (per event: rules, then detectors). An event whose evaluation
    /// errors yields no notifications and no evaluate stamp, and the
    /// batch goes on; one whose history append fails is not evaluated
    /// and is rotated behind the evaluated ones in `events`. Returns
    /// (derived event count, events whose evaluation errored).
    #[inline]
    pub fn evaluate_events(
        &self,
        events: &mut [Event],
        now: TimestampMs,
        batch: &mut StageBatch,
        scratch: &mut EvalScratch,
        notes: &mut Vec<Notification>,
    ) -> (u64, u64) {
        self.evaluate.evaluate_events(events, now, batch, scratch, notes)
    }

    /// Deliver a whole batch of pending notifications through the VIRT
    /// filter — the cycle calls this once per batch, so the filter's
    /// key-state lock is taken once per batch instead of once per
    /// notification (D15). Returns the number delivered. Filter
    /// decisions and handler invocations are in batch order, and the
    /// cycle delivers one batch at a time (D15).
    pub fn deliver_batch(&self, batch: Vec<Notification>) -> u64 {
        self.notify.deliver_batch(batch)
    }

    /// Flush trailing windows on a stream (end of input).
    pub fn flush_stream(&self, stream: &str, watermark: TimestampMs) -> Result<Vec<Event>> {
        self.runtime.flush(stream, watermark)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use evdb_types::{DataType, SimClock};

    /// A server on a simulated clock with an `orders(oid, amt)` table.
    pub(crate) fn server() -> (EventServer, Arc<SimClock>) {
        let clock = SimClock::new(TimestampMs(1_000));
        let s = EventServer::in_memory(ServerConfig {
            clock: clock.clone(),
            ..Default::default()
        })
        .unwrap();
        s.db()
            .create_table(
                "orders",
                Schema::of(&[("oid", DataType::Int), ("amt", DataType::Float)]),
                "oid",
            )
            .unwrap();
        (s, clock)
    }

    #[test]
    fn guarded_queue_access_audits() {
        let (s, _clock) = server();
        s.create_queue(
            "alerts",
            Schema::of(&[("x", DataType::Int)]),
            QueueConfig::default(),
        )
        .unwrap();
        s.queues().subscribe("alerts", "ops").unwrap();
        let alice = Principal::named("alice");
        assert!(s
            .enqueue_as(&alice, "alerts", Record::from_iter([Value::Int(1)]))
            .is_err()); // no grant
        s.access().grant("alice", "queue:alerts", Privilege::Write);
        s.enqueue_as(&alice, "alerts", Record::from_iter([Value::Int(1)]))
            .unwrap();
        assert!(s.dequeue_as(&alice, "alerts", "ops", 1).is_err()); // read not granted
        s.access().grant("alice", "*", Privilege::Read);
        assert_eq!(s.dequeue_as(&alice, "alerts", "ops", 1).unwrap().len(), 1);
        assert_eq!(s.access().audit_len(), 4);
    }
}
