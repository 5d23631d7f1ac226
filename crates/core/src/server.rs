//! The [`EventServer`] facade.
//!
//! Composition (the tutorial's architecture, one field per component):
//! a storage engine with journal and triggers, queue staging areas, a
//! pub/sub broker with predicate subscriptions, a continuous-query
//! runtime, per-stream alert rules (indexed matcher), grouped deviation
//! detectors, a VIRT-filtered notification center, access control with a
//! durable audit trail, and metrics.
//!
//! Dataflow per [`EventServer::pump`]:
//!
//! ```text
//! tables --(trigger|journal|query-poll)--> change events
//!    --> stream runtime --> continuous queries --> query subscribers
//!    --> alert rules    --> notifications (VIRT filter)
//!    --> detectors      --> deviations --> notifications
//! ```

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

use evdb_analytics::detector::UpdatePolicy;
use evdb_analytics::{DeviationDetector, ExpectationModel};
use evdb_cq::aggregate::AggMode;
use evdb_cq::delta::{change_schema, change_to_event};
use evdb_cq::runtime::Subscriber;
use evdb_cq::StreamRuntime;
use evdb_queue::{Delivery, QueueConfig, QueueManager};
use evdb_rules::{Broker, IndexedMatcher, MatchScratch, Matcher, Rule};
use evdb_storage::{
    ChangeEvent, Database, DbOptions, JournalMiner, QuerySnapshot, TriggerOps, TriggerTiming,
};
use evdb_expr::{CompiledExpr, Expr};
use evdb_obs::{Gauge, Registry};
use evdb_types::{
    Clock, Error, Event, EventId, IdGenerator, Record, Result, Schema, Stage, SystemClock,
    TimestampMs, Value,
};
use parking_lot::{Mutex, RwLock};

use crate::admission::{AdmissionControl, OverloadPolicy, Staged};
use crate::history::{History, HistoryConfig, HistorySlot};
use crate::metrics::{Metrics, PumpObs, StageBatch, StageObs};
use crate::notify::{Notification, NotificationCenter, NotificationHandler, VirtPolicy};
use crate::security::{AccessControl, Principal, Privilege};

/// How a table's changes are captured into a stream (§2.2.a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureMechanism {
    /// Synchronous row trigger: lowest latency, taxes the write path,
    /// and (like real AFTER triggers) observes pre-commit changes.
    Trigger,
    /// Asynchronous journal mining: off the commit path, sees only
    /// committed transactions, batched by pump cadence.
    Journal,
    /// Periodic query-snapshot diffing with the given poll interval:
    /// cheapest for slow-moving data, lossy between polls.
    QueryPoll {
        /// Poll interval in milliseconds.
        interval_ms: i64,
    },
}

enum CaptureKind {
    Trigger,
    Journal(JournalMiner),
    Snapshot {
        snapshot: QuerySnapshot,
        interval_ms: i64,
        last_poll: Option<TimestampMs>,
    },
}

struct CaptureTask {
    stream: String,
    table: String,
    schema: Arc<Schema>,
    kind: CaptureKind,
}

/// One stream's alert rules. An entry exists only while the stream has
/// at least one rule, so streams without rules skip the matching stage.
struct AlertRules {
    matcher: IndexedMatcher,
    meta: HashMap<u64, AlertMeta>,
}

struct AlertMeta {
    name: String,
    severity: f64,
    key_field: Option<usize>,
}

struct DetectorGroup {
    name: String,
    field: usize,
    key_field: Option<usize>,
    /// Optional WHEN predicate gating which events the detector observes,
    /// compiled to bytecode at registration time (D11).
    condition: Option<CompiledExpr>,
    factory: Box<dyn Fn() -> DeviationDetector + Send>,
    instances: HashMap<String, DeviationDetector>,
}

/// Reusable buffers for [`EventServer::evaluate_events`]: the batch-VM
/// scratch plus the per-batch staging vectors. Hold one per evaluating
/// thread (each shard worker owns one); buffers size themselves to the
/// batch on first use and are reused afterwards (D15).
#[derive(Default)]
pub struct EvalScratch {
    /// Expression-VM batch scratch (continuous-query head filters).
    expr: evdb_expr::BatchScratch,
    /// Indexed-matcher batch scratch (alert-rule verification).
    rules: MatchScratch,
    /// Per-event continuous-query results (an `Err` withholds the event
    /// from the stages after).
    cq: Vec<Result<Vec<Event>>>,
    /// Per-event alert-rule hits, re-scattered from the per-stream runs.
    hits: Vec<Option<Result<Vec<u64>>>>,
    /// Distinct sources with registered rules, in first-seen order.
    sources: Vec<Arc<str>>,
    /// Event indices of the stream currently being matched.
    idxs: Vec<u32>,
    /// Per-record outputs of one `match_batch` run.
    rule_out: Vec<Result<Vec<u64>>>,
    /// One event's staged notifications (committed only on success).
    event_notes: Vec<Notification>,
    /// The first error of the last batch, for the by-hand entry points
    /// that return it ([`EventServer::pump`], [`EventServer::ingest`]).
    first_error: Option<Error>,
}

/// What [`EventServer::drain_captured`] collected.
#[derive(Debug)]
#[must_use = "a failed capture poll is reported only here"]
pub struct Drained {
    /// Ready-to-evaluate events, in capture order.
    pub events: Vec<Event>,
    /// The first capture poll that failed; `events` holds what the
    /// staged buffer and every other capture gave all the same.
    pub poll_error: Option<Error>,
}

impl Drained {
    /// The staged buffer alone: nothing was polled.
    pub(crate) fn staged(events: Vec<Event>) -> Drained {
        Drained {
            events,
            poll_error: None,
        }
    }
}

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
    notifications: Arc<NotificationCenter>,
    access: AccessControl,
    metrics: Arc<Metrics>,
    registry: Arc<Registry>,
    stage_obs: StageObs,
    pump_obs: PumpObs,
    /// Committed LSNs not yet mined by journal capture (refreshed each
    /// pump while a journal capture is registered).
    journal_lag: Arc<Gauge>,
    agg_mode: AggMode,
    captures: Mutex<Vec<CaptureTask>>,
    /// The bounded staging buffer shared by trigger captures and
    /// [`EventServer::ingest_async`]; drained by the pump in arrival
    /// order (DESIGN.md D10).
    admission: Arc<AdmissionControl>,
    /// Per-stream shed priority for [`OverloadPolicy::ShedLowest`]
    /// (default 0). Shared with trigger closures, hence the `Arc`.
    ingest_priorities: Arc<RwLock<HashMap<String, i64>>>,
    /// Read-mostly: rule registration is rare, matching is per-event and
    /// concurrent under the sharded pump ([`IndexedMatcher::match_record`]
    /// takes `&self`).
    alert_rules: RwLock<HashMap<String, AlertRules>>,
    /// Alert-rule ids, server-wide so an id is never issued twice even
    /// when a stream's rule set is dropped and recreated.
    alert_rule_ids: IdGenerator,
    /// Each detector group has its own lock so sharded workers touching
    /// different groups (or different streams) never contend; the outer
    /// map is read-mostly like `alert_rules`.
    detectors: RwLock<HashMap<String, Vec<Mutex<DetectorGroup>>>>,
    /// Per-stream partition field for sharded routing (see `shard.rs`).
    partition_fields: RwLock<HashMap<String, usize>>,
    /// Historical event store (DESIGN.md D14); empty until
    /// [`EventServer::enable_history`]. `Arc` because the metric bridge
    /// reads it from gauge closures.
    history: Arc<HistorySlot>,
    /// Evaluation scratch for cycles run on a caller's thread (`pump`,
    /// `ingest`, the sequential pump thread); see
    /// [`with_scratch`](Self::with_scratch).
    scratch: Mutex<EvalScratch>,
    /// The cycle gate: one cycle — drain, evaluate, deliver — is in
    /// flight at a time, whichever thread runs it (D15). Held by
    /// [`cycle`](Self::cycle) and by [`run_staged`](Self::run_staged)
    /// for their whole run.
    cycle_gate: Mutex<()>,
    /// Sequential background pumps currently attached (see
    /// [`crate::pump`]): while there is one, a stager may stand in for it.
    sequential_pumps: AtomicUsize,
    /// Called after each batch's subscriber callbacks, on the thread
    /// that ran them ([`on_batch_end`](Self::on_batch_end)).
    batch_end_hooks: RwLock<Vec<BatchEndHook>>,
    ids: IdGenerator,
}

/// An end-of-batch callback ([`EventServer::on_batch_end`]).
pub type BatchEndHook = Arc<dyn Fn() + Send + Sync>;

/// Cycles a stager runs back to back in [`EventServer::run_staged`]
/// before it hands what is still staged to the pump thread: enough to
/// sweep up what raced in behind its own events, few enough that one
/// connection is never captured by everybody else's traffic.
const STAGER_PASSES: usize = 4;

impl EventServer {
    /// Ephemeral server (in-memory journal).
    pub fn in_memory(config: ServerConfig) -> Result<EventServer> {
        let db = Database::in_memory(DbOptions {
            clock: Arc::clone(&config.clock),
            registry: Arc::clone(&config.registry),
            ..Default::default()
        })?;
        Self::from_db(db, config)
    }

    /// Durable server on a directory (runs recovery).
    pub fn open(dir: impl AsRef<Path>, config: ServerConfig) -> Result<EventServer> {
        let db = Database::open(
            dir,
            DbOptions {
                clock: Arc::clone(&config.clock),
                registry: Arc::clone(&config.registry),
                ..Default::default()
            },
        )?;
        Self::from_db(db, config)
    }

    fn from_db(db: Arc<Database>, config: ServerConfig) -> Result<EventServer> {
        let queues = Arc::new(QueueManager::attach(Arc::clone(&db))?);
        let access = AccessControl::attach(Arc::clone(&db))?;
        let registry = config.registry;
        let stage_obs = StageObs::bind(&registry);
        let pump_obs = PumpObs::bind(&registry);
        let journal_lag = registry.gauge("evdb_storage_journal_lag");
        let mut rt = StreamRuntime::new(config.lateness_ms);
        rt.bind_obs(&registry);
        if config.dedup_capacity > 0 {
            rt.enable_dedup(config.dedup_capacity);
        }
        let runtime = Arc::new(rt);
        let metrics = Arc::new(Metrics::default());
        let notifications = Arc::new(NotificationCenter::new(
            config.virt,
            Arc::clone(&config.clock),
        ));
        let admission = Arc::new(AdmissionControl::new(
            config.ingest_capacity,
            config.overload,
        ));
        let history = Arc::new(HistorySlot::default());
        if registry.is_enabled() {
            Self::bridge_gauges(
                &registry,
                &metrics,
                &notifications,
                &runtime,
                &admission,
                &history,
            );
        }
        Ok(EventServer {
            queues,
            broker: Broker::new(),
            runtime,
            notifications,
            access,
            metrics,
            registry,
            stage_obs,
            pump_obs,
            journal_lag,
            agg_mode: config.agg_mode,
            captures: Mutex::new(Vec::new()),
            admission,
            ingest_priorities: Arc::new(RwLock::new(HashMap::new())),
            alert_rules: RwLock::new(HashMap::new()),
            alert_rule_ids: IdGenerator::starting_at(1),
            detectors: RwLock::new(HashMap::new()),
            partition_fields: RwLock::new(HashMap::new()),
            history,
            scratch: Mutex::new(EvalScratch::default()),
            cycle_gate: Mutex::new(()),
            sequential_pumps: AtomicUsize::new(0),
            batch_end_hooks: RwLock::new(Vec::new()),
            ids: IdGenerator::default(),
            db,
        })
    }

    /// Bridge pull-style gauges over the legacy atomic counters so the
    /// text exposition covers the whole engine without double-counting.
    fn bridge_gauges(
        registry: &Registry,
        metrics: &Arc<Metrics>,
        notifications: &Arc<NotificationCenter>,
        runtime: &Arc<StreamRuntime>,
        admission: &Arc<AdmissionControl>,
        history: &Arc<HistorySlot>,
    ) {
        use std::sync::atomic::Ordering;
        let m = Arc::clone(metrics);
        registry.gauge_fn("evdb_core_events_captured", move || {
            m.events_captured.load(Ordering::Relaxed) as f64
        });
        let m = Arc::clone(metrics);
        registry.gauge_fn("evdb_core_events_processed", move || {
            m.events_processed.load(Ordering::Relaxed) as f64
        });
        let m = Arc::clone(metrics);
        registry.gauge_fn("evdb_core_derived_events", move || {
            m.derived_events.load(Ordering::Relaxed) as f64
        });
        let m = Arc::clone(metrics);
        registry.gauge_fn("evdb_core_deviations", move || {
            m.deviations.load(Ordering::Relaxed) as f64
        });
        let m = Arc::clone(metrics);
        registry.gauge_fn("evdb_shard_events_routed", move || {
            m.total_events_routed() as f64
        });
        let m = Arc::clone(metrics);
        registry.gauge_fn("evdb_shard_busy_cycles", move || m.total_busy_cycles() as f64);
        let m = Arc::clone(metrics);
        registry.gauge_fn("evdb_shard_queue_depth", move || {
            m.shard_snapshots().iter().map(|s| s.queue_depth).sum::<u64>() as f64
        });
        let nc = Arc::clone(notifications);
        registry.gauge_fn("evdb_notify_delivered", move || {
            nc.delivered.load(Ordering::Relaxed) as f64
        });
        let nc = Arc::clone(notifications);
        registry.gauge_fn("evdb_notify_suppressed", move || {
            nc.suppressed.load(Ordering::Relaxed) as f64
        });
        let nc = Arc::clone(notifications);
        registry.gauge_fn("evdb_notify_retracted_total", move || {
            nc.retracted.load(Ordering::Relaxed) as f64
        });
        let nc = Arc::clone(notifications);
        registry.gauge_fn("evdb_notify_log_overwritten_total", move || {
            nc.log_overwritten.load(Ordering::Relaxed) as f64
        });
        let rt = Arc::clone(runtime);
        registry.gauge_fn("evdb_cq_window_memory", move || rt.window_memory() as f64);
        // Out-of-order delta accounting (D12): retractions emitted,
        // already-emitted panes reopened, late events admitted vs dropped,
        // and duplicate deliveries suppressed by the replay-dedup window.
        let rt = Arc::clone(runtime);
        registry.gauge_fn("evdb_cq_retractions_total", move || {
            rt.cq_delta_stats().retractions as f64
        });
        let rt = Arc::clone(runtime);
        registry.gauge_fn("evdb_cq_pane_reopens_total", move || {
            rt.cq_delta_stats().pane_reopens as f64
        });
        let rt = Arc::clone(runtime);
        registry.gauge_fn("evdb_cq_late_admitted_total", move || {
            rt.cq_delta_stats().late_admitted as f64
        });
        let rt = Arc::clone(runtime);
        registry.gauge_fn("evdb_cq_late_dropped_total", move || {
            rt.cq_delta_stats().late_events as f64
        });
        let rt = Arc::clone(runtime);
        registry.gauge_fn("evdb_cq_dup_dropped_total", move || rt.dup_dropped() as f64);
        // Admission control: depth plus the no-silent-caps counters
        // (every shed, rejection and dropped capture is visible here).
        let ac = Arc::clone(admission);
        registry.gauge_fn("evdb_ingest_depth", move || ac.depth() as f64);
        let ac = Arc::clone(admission);
        registry.gauge_fn("evdb_ingest_shed_total", move || ac.shed_total() as f64);
        let ac = Arc::clone(admission);
        registry.gauge_fn("evdb_ingest_rejected_total", move || {
            ac.rejected_total() as f64
        });
        let ac = Arc::clone(admission);
        registry.gauge_fn("evdb_ingest_dropped_capture_total", move || {
            ac.dropped_capture_total() as f64
        });
        // Expression compiler: process-wide compile/fold statistics (D9
        // no-silent-caps: every fold and precompiled LIKE is accounted).
        registry.gauge_fn("evdb_expr_compiled_total", || {
            evdb_expr::compiler_stats().compiled_total as f64
        });
        registry.gauge_fn("evdb_expr_folded_subtrees_total", || {
            evdb_expr::compiler_stats().folded_subtrees as f64
        });
        registry.gauge_fn("evdb_expr_folded_nodes_total", || {
            evdb_expr::compiler_stats().folded_nodes as f64
        });
        registry.gauge_fn("evdb_expr_like_precompiled_total", || {
            evdb_expr::compiler_stats().like_precompiled as f64
        });
        // Batched evaluation (D15): how many batch-VM dispatches ran and
        // how many records they covered, process-wide. The ratio is the
        // realized amortization of the batched hot path.
        registry.gauge_fn("evdb_expr_batches_total", || {
            evdb_expr::batch_stats().0 as f64
        });
        registry.gauge_fn("evdb_expr_batched_records_total", || {
            evdb_expr::batch_stats().1 as f64
        });
        // Historical event store (D14). Registered even while history is
        // disabled (they read zero) so the exposition's metric set does
        // not depend on whether enable_history ran.
        let h = Arc::clone(history);
        registry.gauge_fn("evdb_store_segments", move || h.stats().0 as f64);
        let h = Arc::clone(history);
        registry.gauge_fn("evdb_store_appended_total", move || {
            h.stats().1.appended as f64
        });
        let h = Arc::clone(history);
        registry.gauge_fn("evdb_store_freezes_total", move || {
            h.stats().1.freezes as f64
        });
        let h = Arc::clone(history);
        registry.gauge_fn("evdb_store_compactions_total", move || {
            h.stats().1.compactions as f64
        });
        let h = Arc::clone(history);
        registry.gauge_fn("evdb_store_segments_pruned_total", move || {
            h.stats().1.segments_pruned as f64
        });
        let h = Arc::clone(history);
        registry.gauge_fn("evdb_store_zones_pruned_total", move || {
            h.stats().1.zones_pruned as f64
        });
        let h = Arc::clone(history);
        registry.gauge_fn("evdb_store_replayed_total", move || {
            h.stats().1.replayed as f64
        });
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
        &self.notifications
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

    /// The per-stage observability handles (shared with the sharded
    /// pump's router and worker threads, which flush their own
    /// [`StageBatch`]es through it).
    pub fn stage_obs(&self) -> &StageObs {
        &self.stage_obs
    }

    /// The background pump's wake-up / maintenance / cycle counters.
    pub(crate) fn pump_obs(&self) -> &PumpObs {
        &self.pump_obs
    }

    /// Current engine time.
    pub fn now(&self) -> TimestampMs {
        self.db.now()
    }

    // ---- capture ------------------------------------------------------------

    /// Capture a table's changes into stream `"<table>_changes"` using
    /// the given mechanism. Returns the stream name.
    pub fn capture_table(&self, table: &str, mechanism: CaptureMechanism) -> Result<String> {
        let t = self.db.table(table)?;
        let stream = format!("{table}_changes");
        let key_type = t.schema().fields()[t.def().pk].dtype;
        let schema = change_schema(t.schema(), key_type)?;
        self.runtime.create_stream(&stream, Arc::clone(&schema))?;

        let kind = match mechanism {
            CaptureMechanism::Trigger => {
                let admission = Arc::clone(&self.admission);
                let priorities = Arc::clone(&self.ingest_priorities);
                let stream_name = stream.clone();
                self.db.create_trigger(
                    &format!("__cap_{stream}"),
                    table,
                    TriggerTiming::After,
                    TriggerOps::ALL,
                    None,
                    Arc::new(move |ev| {
                        // Admission runs inside the writer's transaction:
                        // under `Reject` the returned `Overloaded` error
                        // aborts (rolls back) the producer's write, and
                        // under `Block` the writer parks — holding the
                        // write gate — until the pump drains (the drain
                        // never takes the gate, so this cannot deadlock).
                        let pri = priorities.read().get(&stream_name).copied().unwrap_or(0);
                        admission.admit(pri, Staged::Change(stream_name.clone(), ev.clone()))
                    }),
                )?;
                CaptureKind::Trigger
            }
            CaptureMechanism::Journal => CaptureKind::Journal(JournalMiner::from_now(&self.db)),
            CaptureMechanism::QueryPoll { interval_ms } => CaptureKind::Snapshot {
                snapshot: QuerySnapshot::new(table, evdb_expr::Expr::lit(true)),
                interval_ms: interval_ms.max(1),
                last_poll: None,
            },
        };
        self.captures.lock().push(CaptureTask {
            stream,
            table: table.to_string(),
            schema,
            kind,
        });
        Ok(self
            .captures
            .lock()
            .last()
            .expect("just pushed")
            .stream
            .clone())
    }

    /// Deregister a capture task (the stream itself stays: registered
    /// rules and queries keep their schema). For trigger captures the
    /// row trigger is dropped, so subsequent writes stop staging
    /// changes; changes already staged when the capture goes away are
    /// counted as dropped captures at the next drain (never silently
    /// discarded).
    pub fn remove_capture(&self, stream: &str) -> Result<()> {
        let task = {
            let mut captures = self.captures.lock();
            let pos = captures
                .iter()
                .position(|t| t.stream == stream)
                .ok_or_else(|| Error::NotFound(format!("capture for '{stream}'")))?;
            captures.remove(pos)
        };
        if matches!(task.kind, CaptureKind::Trigger) {
            self.db.drop_trigger(&format!("__cap_{stream}"))?;
        }
        Ok(())
    }

    /// Set a stream's shed priority (default 0): under
    /// [`OverloadPolicy::ShedLowest`], staged events from
    /// lower-priority streams are displaced first when the buffer is
    /// full. Applies to trigger captures and `ingest_async` alike.
    pub fn set_ingest_priority(&self, stream: &str, priority: i64) -> Result<()> {
        self.runtime.stream_schema(stream)?;
        self.ingest_priorities
            .write()
            .insert(stream.to_string(), priority);
        Ok(())
    }

    /// The admission-control gate on the staged ingest path: capacity,
    /// policy, live depth and the shed / rejected / dropped-capture
    /// accounting.
    pub fn admission(&self) -> &Arc<AdmissionControl> {
        &self.admission
    }

    /// Declare a free-standing stream fed by [`EventServer::ingest`]
    /// (external feeds: market data, sensor telemetry).
    pub fn create_stream(&self, name: &str, schema: Arc<Schema>) -> Result<()> {
        self.runtime.create_stream(name, schema)
    }

    /// Push one external event into a stream, running the evaluation
    /// pipeline for it immediately: a batch of one on the calling thread.
    pub fn ingest(
        &self,
        stream: &str,
        timestamp: TimestampMs,
        payload: Record,
    ) -> Result<PumpStats> {
        use std::sync::atomic::Ordering;
        let mut event = self.make_event(stream, timestamp, payload)?;
        self.metrics.events_captured.fetch_add(1, Ordering::Relaxed);
        if self.stage_obs.enabled {
            event.trace.stamp(Stage::Capture, event.timestamp);
            self.stage_obs
                .observe(Stage::Capture, self.now().since(event.timestamp).max(0) as f64);
        }
        let (stats, _, first_error) = self.evaluate_inline(vec![event]);
        first_error.map_or(Ok(stats), Err)
    }

    /// Stage one external event for the next pump instead of evaluating
    /// it inline. This is the producer-side entry point for background
    /// pumping (sequential or sharded): producers validate and enqueue,
    /// the pump evaluates. Counted as captured when drained.
    /// Staging is subject to admission control: when the staged buffer
    /// is at capacity the configured [`OverloadPolicy`] applies (block,
    /// `Err(Overloaded)`, or shed-lowest).
    pub fn ingest_async(
        &self,
        stream: &str,
        timestamp: TimestampMs,
        payload: Record,
    ) -> Result<()> {
        let (pri, item) = self.external(stream, timestamp, payload)?;
        self.admission.admit(pri, item)
    }

    /// [`ingest_async`](Self::ingest_async) for a caller that would
    /// otherwise block right after staging (a connection's reader): the
    /// first half of the stage-then-run pair. While a sequential
    /// background pump is attached the event is pushed *without* waking
    /// it, and the caller owes a [`run_staged`](Self::run_staged) once it
    /// has staged all it has in hand. With no pump attached, or a sharded
    /// one, this is `ingest_async` exactly.
    pub fn stage(&self, stream: &str, timestamp: TimestampMs, payload: Record) -> Result<()> {
        let (pri, item) = self.external(stream, timestamp, payload)?;
        if self.stager_stands_in() {
            self.admission.push(pri, item)
        } else {
            self.admission.admit(pri, item)
        }
    }

    /// The second half of the pair: evaluate what is staged on the
    /// calling thread, instead of waking the pump thread and waiting for
    /// it to be scheduled. The caller takes the cycle gate — waiting out
    /// a cycle in flight, as [`pump`](Self::pump) does — and runs work
    /// cycles until the buffer is empty, at most [`STAGER_PASSES`] of
    /// them, then leaves the rest to the pump. A caller whose events the
    /// cycle in flight already took finds nothing staged and returns.
    /// No event waits for the tick: whoever pushed it is on its way to
    /// the gate.
    ///
    /// Waiting, not handing over: a stager that woke the pump whenever
    /// it met a cycle in flight (the tick's, once a millisecond) kept
    /// finding the pump's next cycle in flight, so a busy connection
    /// flipped between serving itself and feeding the pump thread for
    /// seconds at a time, at very different throughputs (DESIGN.md §7).
    ///
    /// Does nothing unless a sequential background pump is attached
    /// (without one [`stage`](Self::stage) was a plain `ingest_async`),
    /// so a server that is only pumped by hand evaluates nothing here.
    /// Must not be called from inside a trigger (the cycle would run
    /// inside the writer's transaction) nor from inside a subscriber
    /// (its cycle holds the gate).
    pub fn run_staged(&self) {
        if !self.stager_stands_in() {
            return;
        }
        let gate = self.cycle_gate.lock();
        for _ in 0..STAGER_PASSES {
            if self.admission.depth() == 0 {
                return;
            }
            let (_, errors, _) = self.cycle_gated(false);
            self.pump_obs.inline_cycles.inc();
            self.pump_obs.cycles.inc();
            self.pump_obs.errors.add(errors);
        }
        drop(gate);
        if self.admission.depth() > 0 {
            self.admission.wake();
        }
    }

    fn stager_stands_in(&self) -> bool {
        self.sequential_pumps.load(std::sync::atomic::Ordering::SeqCst) > 0
    }

    /// Count a sequential background pump in; the returned guard counts
    /// it out again when the pump thread drops it.
    pub(crate) fn attach_sequential_pump(self: &Arc<Self>) -> SequentialPumpGuard {
        self.sequential_pumps
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        SequentialPumpGuard(Arc::clone(self))
    }

    fn external(
        &self,
        stream: &str,
        timestamp: TimestampMs,
        payload: Record,
    ) -> Result<(i64, Staged)> {
        let event = self.make_event(stream, timestamp, payload)?;
        let pri = self
            .ingest_priorities
            .read()
            .get(stream)
            .copied()
            .unwrap_or(0);
        Ok((pri, Staged::External(event)))
    }

    fn make_event(&self, stream: &str, timestamp: TimestampMs, payload: Record) -> Result<Event> {
        let schema = self.runtime.stream_schema(stream)?;
        schema.validate(&payload)?;
        Ok(Event::new(
            EventId(self.ids.next_id()),
            stream,
            timestamp,
            payload,
            schema,
        ))
    }

    /// Partition a stream's events by a payload field for sharded
    /// pumping ([`crate::PumpMode::Sharded`]). By default a whole stream
    /// maps to one shard, which preserves every sequential semantic
    /// (CQ windows, cross-key detectors, in-stream order). Keying a hot
    /// stream by a field spreads it over the workers; use it only when
    /// the stream's rules and detectors are scoped by that same field
    /// and no continuous query reads the stream (see DESIGN.md §D7).
    pub fn set_partition_field(&self, stream: &str, field: &str) -> Result<()> {
        let schema = self.runtime.stream_schema(stream)?;
        let idx = schema
            .index_of(field)
            .ok_or_else(|| Error::Schema(format!("unknown partition field '{field}'")))?;
        self.partition_fields
            .write()
            .insert(stream.to_string(), idx);
        Ok(())
    }

    /// The routing key the sharded pump hashes for this event: the
    /// stream name, refined by the stream's partition field if one is
    /// configured.
    pub fn partition_key_of(&self, event: &Event) -> String {
        match self.partition_fields.read().get(event.source.as_ref()) {
            Some(&i) => format!(
                "{}/{}",
                event.source,
                event.payload.get(i).cloned().unwrap_or(Value::Null)
            ),
            None => event.source.to_string(),
        }
    }

    // ---- historical event store (D14) ------------------------------------------

    /// Enable the historical event store under `root`: from now on every
    /// event that reaches [`EventServer::evaluate_events`] — on either
    /// pump mode — is also appended to its stream's columnar segment
    /// store, queryable and replayable after the fact. Errors if history
    /// is already enabled. Re-opening an existing root runs segment
    /// recovery per stream.
    pub fn enable_history(
        &self,
        root: impl AsRef<Path>,
        config: HistoryConfig,
    ) -> Result<Arc<History>> {
        self.history.install(History::open(root, config)?)
    }

    /// The historical store, if [`enable_history`](Self::enable_history)
    /// has run.
    pub fn history(&self) -> Option<Arc<History>> {
        self.history.get()
    }

    /// REPLAY a stream's history in original arrival order, as
    /// reconstructed events (original ids, timestamps and retraction
    /// flags). `from_seq..=to_seq` are history sequence numbers as
    /// returned by the store; `(0, u64::MAX)` replays everything.
    pub fn replay(&self, stream: &str, from_seq: u64, to_seq: u64) -> Result<Vec<Event>> {
        let history = self
            .history
            .get()
            .ok_or_else(|| Error::Invalid("history is not enabled".into()))?;
        let schema = self.runtime.stream_schema(stream)?;
        let store = history.store_or_recover(stream, &schema)?;
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
        let derived = self.with_scratch(|scratch| {
            self.runtime
                .push_events_replay(&events, &mut scratch.expr, &mut scratch.cq);
            scratch
                .cq
                .drain(..)
                .try_fold(0u64, |n, r| r.map(|d| n + d.len() as u64))
        })?;
        Ok((events.len() as u64, derived))
    }

    /// Run `f` with the server's evaluation scratch. The scratch is taken
    /// out of its slot for the call, never held locked across it: a
    /// subscriber that re-enters [`EventServer::ingest`] finds an empty
    /// scratch (and leaves its own behind) instead of a deadlock.
    fn with_scratch<T>(&self, f: impl FnOnce(&mut EvalScratch) -> T) -> T {
        let mut scratch = std::mem::take(&mut *self.scratch.lock());
        let out = f(&mut scratch);
        *self.scratch.lock() = scratch;
        out
    }

    /// Historical query: events of `stream` whose payload satisfies
    /// `predicate`, in arrival order, pruned by segment- and zone-level
    /// statistics (check `evdb_store_*_pruned_total` to see the savings).
    pub fn query_history(&self, stream: &str, predicate: &str) -> Result<Vec<Event>> {
        let history = self
            .history
            .get()
            .ok_or_else(|| Error::Invalid("history is not enabled".into()))?;
        let schema = self.runtime.stream_schema(stream)?;
        let store = history.store_or_recover(stream, &schema)?;
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
        {
            let mut captures = self.captures.lock();
            for task in captures.iter_mut() {
                if task.stream != stream {
                    continue;
                }
                match &mut task.kind {
                    CaptureKind::Journal(miner) => {
                        miner.resync(&self.db);
                    }
                    CaptureKind::Snapshot { snapshot, .. } => {
                        snapshot.rebaseline(&self.db)?;
                    }
                    CaptureKind::Trigger => {}
                }
            }
        }
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
        self.batch_end_hooks.write().push(hook);
    }

    /// Give subscribers the end-of-batch signal.
    pub(crate) fn end_batch(&self) {
        for hook in self.batch_end_hooks.read().iter() {
            hook();
        }
    }

    // ---- alert rules -------------------------------------------------------------

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
        let schema = self.runtime.stream_schema(stream)?;
        let expr = evdb_expr::parse(predicate)?;
        let key_idx = match key_field {
            None => None,
            Some(f) => Some(
                schema
                    .index_of(f)
                    .ok_or_else(|| Error::Schema(format!("unknown key field '{f}'")))?,
            ),
        };
        let id = self.alert_rule_ids.next_id();
        let rule = Rule::new(id, name, expr);
        let meta = AlertMeta {
            name: name.to_string(),
            severity,
            key_field: key_idx,
        };
        let mut rules = self.alert_rules.write();
        match rules.get_mut(stream) {
            Some(entry) => {
                entry.matcher.add_rule(rule)?;
                entry.meta.insert(id, meta);
            }
            None => {
                // Inserted only once its first rule registered.
                let mut matcher = IndexedMatcher::new(schema);
                matcher.bind_obs(&self.registry);
                matcher.add_rule(rule)?;
                rules.insert(
                    stream.to_string(),
                    AlertRules {
                        matcher,
                        meta: HashMap::from([(id, meta)]),
                    },
                );
            }
        }
        Ok(id)
    }

    /// Remove an alert rule.
    pub fn remove_alert_rule(&self, stream: &str, id: u64) -> Result<()> {
        let mut rules = self.alert_rules.write();
        let entry = rules
            .get_mut(stream)
            .ok_or_else(|| Error::NotFound(format!("alert rules on '{stream}'")))?;
        entry.matcher.remove_rule(id)?;
        entry.meta.remove(&id);
        if entry.matcher.is_empty() {
            rules.remove(stream);
        }
        Ok(())
    }

    // ---- detectors ----------------------------------------------------------------

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
        let schema = self.runtime.stream_schema(stream)?;
        let condition = match condition {
            None => None,
            Some(e) => Some(CompiledExpr::compile(&e.bind_predicate(&schema)?)),
        };
        let field_idx = schema
            .index_of(field)
            .ok_or_else(|| Error::Schema(format!("unknown field '{field}'")))?;
        let key_idx = match key_field {
            None => None,
            Some(f) => Some(
                schema
                    .index_of(f)
                    .ok_or_else(|| Error::Schema(format!("unknown key field '{f}'")))?,
            ),
        };
        self.detectors
            .write()
            .entry(stream.to_string())
            .or_default()
            .push(Mutex::new(DetectorGroup {
                name: name.to_string(),
                field: field_idx,
                key_field: key_idx,
                condition,
                factory: Box::new(move || DeviationDetector::with_policy(model_factory(), policy)),
                instances: HashMap::new(),
            }));
        Ok(())
    }

    /// Register a notification handler.
    pub fn on_notification(&self, handler: NotificationHandler) {
        self.notifications.on_notification(handler);
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
        self.notifications.on_notification(Arc::new(move |n| {
            // Enqueue failures must not unwind into the notifier; they
            // surface through queue metrics/depth instead.
            let _ = queues.enqueue(
                &qname,
                Record::from_iter([
                    Value::from(n.key.as_str()),
                    Value::Float(n.severity),
                    Value::from(n.title.as_str()),
                    Value::from(n.body.as_str()),
                    Value::Timestamp(n.timestamp),
                ]),
                "notification-center",
            );
        }));
        Ok(schema)
    }

    // ---- queue & topic conveniences (guarded variants audit) ----------------------

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

    // ---- the pump ------------------------------------------------------------------

    /// Drain all pending captured changes through the evaluation
    /// pipeline, then run [`maintain`](Self::maintain): the full cycle
    /// (work + maintenance). Deterministic: with a `SimClock`, repeated
    /// runs produce identical results. Returns the first error met — but
    /// only after every other drained event has been evaluated and its
    /// notifications delivered, as the background pumps do.
    ///
    /// Waits for a cycle in flight on another thread (one at a time,
    /// D15) — so not to be called from a subscriber or notification
    /// handler, which runs inside one.
    pub fn pump(&self) -> Result<PumpStats> {
        let (stats, _, first_error) = self.cycle(true);
        first_error.map_or(Ok(stats), Err)
    }

    /// One cycle on the calling thread — what [`pump`](Self::pump) and
    /// the sequential pump thread run — under the cycle gate: a second
    /// caller waits for the first to finish, so two batches are never
    /// evaluated side by side and per-key arrival order (D15) holds
    /// whoever pumps. A work wake evaluates what
    /// producers have staged (trigger captures,
    /// [`ingest_async`](Self::ingest_async)) and nothing else, so its
    /// cost is proportional to the events staged: no `captures` lock, no
    /// queue list. A `maintenance` cycle also polls the pull-based
    /// captures before evaluating and runs [`maintain`](Self::maintain)
    /// after. Returns the stats, how many errors the cycle met and the
    /// first of them.
    pub(crate) fn cycle(&self, maintenance: bool) -> (PumpStats, u64, Option<Error>) {
        let _gate = self.cycle_gate.lock();
        self.cycle_gated(maintenance)
    }

    /// The cycle itself; the caller holds the gate.
    fn cycle_gated(&self, maintenance: bool) -> (PumpStats, u64, Option<Error>) {
        let Drained { events, poll_error } = if maintenance {
            self.drain_captured()
        } else {
            Drained::staged(self.drain_staged())
        };
        let (stats, mut errors, mut first_error) = self.evaluate_inline(events);
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

    /// Housekeeping on the maintenance tick, shared by both pump modes:
    /// make queue messages whose visibility timeout lapsed deliverable
    /// again, then bounded history maintenance — at most one segment
    /// merge per stream, so compaction rides the pump cadence instead of
    /// needing its own thread (determinism under SimClock).
    pub(crate) fn maintain(&self) -> Result<()> {
        for q in self.queues.queue_names() {
            let _ = self.queues.reap_timeouts(&q);
        }
        if let Some(history) = self.history.get() {
            history.maintain()?;
        }
        Ok(())
    }

    /// Evaluate a drained batch on the calling thread and deliver its
    /// notifications: route stamp, [`evaluate_events`](Self::evaluate_events),
    /// [`deliver_batch`](Self::deliver_batch) — the calls the sharded
    /// pump spreads over its router, workers and merge stage (D7).
    /// Returns the stats, the number of events whose evaluation errored
    /// and the first such error.
    fn evaluate_inline(&self, mut events: Vec<Event>) -> (PumpStats, u64, Option<Error>) {
        let mut stats = PumpStats {
            captured: events.len() as u64,
            ..PumpStats::default()
        };
        // One clock read serves every stage stamp this cycle: the stage
        // histograms have 10ms bins, so per-event clock reads would buy
        // no resolution and cost a measurable share of the pipeline
        // (experiment E13 bounds the total tax).
        let stamp_now = self.now();
        let mut batch = StageBatch::default();
        for event in &mut events {
            self.observe_route(event, stamp_now, &mut batch);
        }
        let mut notes = Vec::new();
        let ((derived, errors), first_error) = self.with_scratch(|scratch| {
            let counts =
                self.evaluate_events(&mut events, stamp_now, &mut batch, scratch, &mut notes);
            (counts, scratch.first_error.take())
        });
        self.stage_obs.flush(&mut batch);
        stats.derived = derived;
        stats.notified = self.deliver_batch(notes);
        self.end_batch();
        (stats, errors, first_error)
    }

    /// Collect every pending captured change as a ready-to-evaluate
    /// event, in capture order, without evaluating anything: the staged
    /// buffer first, then one poll of every journal-mined and
    /// query-poll capture. This is the ingest stage of a full cycle,
    /// shared by [`pump`](Self::pump) and the sharded pump's router
    /// thread (which fans the batch out to workers). Capture-side
    /// metrics (`events_captured`, capture latency) are recorded here.
    ///
    /// A capture whose poll fails costs the cycle nothing else: the
    /// events already taken out of admission and out of the other
    /// captures (whose positions have advanced) are returned for
    /// evaluation, beside the first poll error.
    pub fn drain_captured(&self) -> Drained {
        let now = self.now();
        let mut events = Vec::new();
        let mut batch = StageBatch::default();
        self.collect_staged(now, &mut events, &mut batch);
        let poll_error = self.poll_captures(now, &mut events, &mut batch);
        self.stage_obs.flush(&mut batch);
        Drained { events, poll_error }
    }

    /// The staged buffer alone, as ready-to-evaluate events in arrival
    /// order: the ingest stage of a work wake. Touches neither the
    /// pull-based captures nor (unless a trigger change is staged) the
    /// `captures` lock.
    pub fn drain_staged(&self) -> Vec<Event> {
        let mut events = Vec::new();
        let mut batch = StageBatch::default();
        self.collect_staged(self.now(), &mut events, &mut batch);
        self.stage_obs.flush(&mut batch);
        events
    }

    /// Drain the staged buffer (ingest_async producers + trigger
    /// captures) strictly in arrival order: the admission queue is the
    /// single cross-stream sequence, so two interleaved producers are
    /// evaluated exactly as they arrived (regression-tested in
    /// tests/admission.rs).
    fn collect_staged(&self, now: TimestampMs, events: &mut Vec<Event>, batch: &mut StageBatch) {
        use std::sync::atomic::Ordering;
        // Change-stream schemas by stream name, looked up under the
        // `captures` lock on the first staged change of this drain: an
        // ingest_async-only drain takes no lock and builds no map.
        let mut schemas: Option<HashMap<String, Arc<Schema>>> = None;
        let mut dropped: HashMap<String, u64> = HashMap::new();
        for item in self.admission.drain() {
            match item {
                Staged::External(mut event) => {
                    self.metrics.events_captured.fetch_add(1, Ordering::Relaxed);
                    // Async-ingested events start their trace at event
                    // time; capture latency is staging-to-drain lag.
                    if event.trace.stamp_of(Stage::Capture).is_none() {
                        event.trace.stamp(Stage::Capture, event.timestamp);
                    }
                    if self.stage_obs.enabled {
                        batch.push(Stage::Capture, now.since(event.timestamp).max(0) as f64);
                    }
                    events.push(event);
                }
                Staged::Change(stream, change) => {
                    let schemas = schemas.get_or_insert_with(|| {
                        self.captures
                            .lock()
                            .iter()
                            .map(|t| (t.stream.clone(), Arc::clone(&t.schema)))
                            .collect()
                    });
                    let Some(schema) = schemas.get(&stream) else {
                        // Capture deregistered between staging and
                        // drain: count and log, never lose silently.
                        *dropped.entry(stream).or_default() += 1;
                        continue;
                    };
                    events.push(self.change_into_event(&stream, schema, change, now, batch));
                }
            }
        }
        if !dropped.is_empty() {
            let total: u64 = dropped.values().sum();
            self.admission.note_dropped_capture(total);
            for (stream, n) in &dropped {
                eprintln!(
                    "evdb: dropped {n} staged change(s) for '{stream}' \
                     (capture deregistered before drain)"
                );
            }
        }
    }

    /// Poll the pull-based captures (journal miners, query-poll
    /// snapshots) once and refresh the journal-lag gauge. Runs on the
    /// pump's maintenance tick, which bounds how stale these captures
    /// can be. Every capture is polled whatever the others do; returns
    /// the first poll error.
    fn poll_captures(
        &self,
        now: TimestampMs,
        events: &mut Vec<Event>,
        batch: &mut StageBatch,
    ) -> Option<Error> {
        let mut first_error = None;
        let mut batches: Vec<(String, Arc<Schema>, Vec<ChangeEvent>)> = Vec::new();
        {
            let mut captures = self.captures.lock();
            for task in captures.iter_mut() {
                let polled = match &mut task.kind {
                    CaptureKind::Trigger => continue,
                    CaptureKind::Journal(miner) => {
                        self.journal_lag
                            .set(self.db.last_lsn().saturating_sub(miner.position()) as f64);
                        // The journal carries every table's ops; this
                        // capture only owns its own table's changes.
                        miner.poll(&self.db).map(|mut evs| {
                            evs.retain(|c| c.table.as_ref() == task.table);
                            evs
                        })
                    }
                    CaptureKind::Snapshot {
                        snapshot,
                        interval_ms,
                        last_poll,
                    } => {
                        let due = match last_poll {
                            None => true,
                            Some(t) => now.since(*t) >= *interval_ms,
                        };
                        if !due {
                            continue;
                        }
                        *last_poll = Some(now);
                        snapshot.poll(&self.db)
                    }
                };
                match polled {
                    Ok(evs) if evs.is_empty() => {}
                    Ok(evs) => batches.push((task.stream.clone(), Arc::clone(&task.schema), evs)),
                    Err(e) => {
                        first_error.get_or_insert(e);
                    }
                }
            }
        }

        for (stream, schema, changes) in batches {
            for change in changes {
                events.push(self.change_into_event(&stream, &schema, change, now, batch));
            }
        }
        first_error
    }

    /// Convert one captured [`ChangeEvent`] into the stream event the
    /// pipeline evaluates, recording capture-side metrics.
    fn change_into_event(
        &self,
        stream: &str,
        schema: &Arc<Schema>,
        change: ChangeEvent,
        now: TimestampMs,
        batch: &mut StageBatch,
    ) -> Event {
        use std::sync::atomic::Ordering;
        let event = change_to_event(&change, schema, &self.ids);
        // Rewrite the event source to the stream name so the
        // runtime routes it (delta:: prefix is for standalone use).
        let mut event = Event::new(
            event.id,
            stream,
            event.timestamp,
            event.payload,
            event.schema,
        );
        // Continue the change's trace (capture stamped when the
        // change was produced).
        event.trace = change.trace;
        self.metrics.events_captured.fetch_add(1, Ordering::Relaxed);
        let lat = now.since(change.timestamp) as f64;
        self.metrics.observe_latency(lat);
        if self.stage_obs.enabled {
            batch.push(Stage::Capture, lat.max(0.0));
        }
        event
    }

    /// Stamp the route stage on an event at `now` and queue the
    /// capture→route span. Called once per event by the inline cycle
    /// and by the sharded pump's router thread; callers read the clock
    /// once per batch and flush the batch once per cycle (stage
    /// histograms are ms-granular).
    pub fn observe_route(&self, event: &mut Event, now: TimestampMs, batch: &mut StageBatch) {
        if !self.stage_obs.enabled {
            return;
        }
        event.trace.stamp(Stage::Route, now);
        let span = event
            .trace
            .span_ms(Stage::Capture, Stage::Route)
            .unwrap_or(0) as f64;
        batch.push(Stage::Route, span);
    }

    /// Evaluate a batch of routed events — continuous queries, alert
    /// rules, detectors — *collecting* its notifications instead of
    /// delivering them: the one evaluation path (D15). Shard workers call
    /// it on each routed batch, the inline cycle on each drained one,
    /// [`ingest`](Self::ingest) on a batch of one; delivery is the
    /// caller's next step ([`deliver_batch`](Self::deliver_batch)),
    /// because the VIRT filter is stateful per key and the sharded pump
    /// runs it on its single merge stage.
    ///
    /// The outcome does not depend on how the input was cut into
    /// batches (`tests/prop_chunking.rs`): history append, dedup and
    /// detector state advance per event in arrival order, while the
    /// stateless stages amortize — continuous queries go through
    /// [`StreamRuntime::push_events`] (one pipeline lock per query per
    /// batch, head filters pre-verified through the batch VM) and alert
    /// rules through [`Matcher::match_batch`]. Within the batch,
    /// continuous-query subscribers run query-major; notifications are
    /// appended to `notes` in event order (per event: rules, then
    /// detectors). An event whose evaluation errors yields no
    /// notifications and no evaluate stamp, and the batch goes on; an
    /// event whose history append fails is not evaluated at all and is
    /// rotated behind the evaluated ones in `events`. Returns (derived
    /// event count, events whose evaluation errored).
    pub fn evaluate_events(
        &self,
        events: &mut [Event],
        now: TimestampMs,
        batch: &mut StageBatch,
        scratch: &mut EvalScratch,
        notes: &mut Vec<Notification>,
    ) -> (u64, u64) {
        use std::sync::atomic::Ordering;
        scratch.first_error = None;
        if events.is_empty() {
            return (0, 0);
        }
        self.metrics
            .events_processed
            .fetch_add(events.len() as u64, Ordering::Relaxed);

        // History first, per event in arrival order (D14: the store sees
        // exactly the sequence the pipeline evaluates). The recorded
        // events are kept a contiguous prefix, in order, for the batched
        // stages below.
        let mut errors = 0u64;
        let mut recorded = events.len();
        if let Some(history) = self.history.get() {
            recorded = 0;
            for i in 0..events.len() {
                match history.append(&events[i]) {
                    Ok(_) => {
                        events[recorded..=i].rotate_right(1);
                        recorded += 1;
                    }
                    Err(e) => {
                        errors += 1;
                        scratch.first_error.get_or_insert(e);
                    }
                }
            }
        }
        let events = &mut events[..recorded];

        // Continuous queries, batched. An event that errors here is
        // withheld from the rule and detector stages.
        self.runtime
            .push_events(events, &mut scratch.expr, &mut scratch.cq);
        let derived_total: u64 = scratch.cq.iter().flatten().map(|d| d.len() as u64).sum();
        self.metrics
            .derived_events
            .fetch_add(derived_total, Ordering::Relaxed);

        // Alert rules, batched per stream: the candidate-verify work is
        // rule-major through the batch VM; hits land back per event.
        scratch.hits.clear();
        scratch.hits.resize_with(events.len(), || None);
        {
            let rules = self.alert_rules.read();
            if !rules.is_empty() {
                scratch.sources.clear();
                for (i, ev) in events.iter().enumerate() {
                    if scratch.cq[i].is_ok()
                        && rules.contains_key(ev.source.as_ref())
                        && !scratch.sources.contains(&ev.source)
                    {
                        scratch.sources.push(Arc::clone(&ev.source));
                    }
                }
                for src in std::mem::take(&mut scratch.sources) {
                    let entry = &rules[src.as_ref()];
                    scratch.idxs.clear();
                    scratch.idxs.extend(events.iter().enumerate().filter_map(|(i, e)| {
                        (scratch.cq[i].is_ok() && e.source == src).then_some(i as u32)
                    }));
                    let records: Vec<&Record> = scratch
                        .idxs
                        .iter()
                        .map(|&i| &events[i as usize].payload)
                        .collect();
                    entry
                        .matcher
                        .match_batch(&records, &mut scratch.rules, &mut scratch.rule_out);
                    for (k, hit) in scratch.rule_out.drain(..).enumerate() {
                        scratch.hits[scratch.idxs[k] as usize] = Some(hit);
                    }
                }
            }
        }

        // Per-event tail, in arrival order: materialize rule hits, then
        // run the (stateful) detectors, so every notification lands in
        // `notes` in event order. An event's notes are staged and only
        // committed if its whole evaluation succeeded.
        let rules = self.alert_rules.read();
        for (i, event) in events.iter_mut().enumerate() {
            scratch.event_notes.clear();
            let cq = std::mem::replace(&mut scratch.cq[i], Ok(Vec::new()));
            let hits = scratch.hits[i].take().unwrap_or(Ok(Vec::new()));
            let outcome = cq.and(hits).and_then(|ids| {
                // `get`, not index: churn may have dropped the whole
                // stream's rule set since the match phase's lock.
                if let Some(entry) = rules.get(event.source.as_ref()) {
                    for id in ids {
                        scratch
                            .event_notes
                            .extend(Self::rule_notification(entry, id, event));
                    }
                }
                self.collect_detectors(event, &mut scratch.event_notes)
            });
            match outcome {
                Ok(()) => {
                    notes.append(&mut scratch.event_notes);
                    self.stamp_evaluated(event, now, batch);
                }
                Err(e) => {
                    errors += 1;
                    scratch.first_error.get_or_insert(e);
                }
            }
        }
        (derived_total, errors)
    }

    /// Stamp the evaluate stage on a successfully evaluated event and
    /// queue its capture→evaluate span (no-op when stage observability
    /// is disabled).
    fn stamp_evaluated(&self, event: &mut Event, now: TimestampMs, batch: &mut StageBatch) {
        if !self.stage_obs.enabled {
            return;
        }
        event.trace.stamp(Stage::Evaluate, now);
        let span = event
            .trace
            .span_ms(Stage::Capture, Stage::Evaluate)
            .unwrap_or(0) as f64;
        batch.push(Stage::Evaluate, span);
    }

    /// Deliver a whole batch of pending notifications through the VIRT
    /// filter — the merge stage of the sharded pump calls this once per
    /// drained round, the inline cycle once per batch, so the filter's
    /// key-state lock is taken once per batch instead of once per
    /// notification (D15). Returns the number delivered. Filter
    /// decisions and handler invocations are in batch order;
    /// single-threaded per key by construction in both pump modes.
    pub fn deliver_batch(&self, mut batch: Vec<Notification>) -> u64 {
        if batch.is_empty() {
            return 0;
        }
        if self.stage_obs.enabled {
            let now = self.now();
            let mut spans = StageBatch::default();
            for n in &mut batch {
                n.trace.stamp(Stage::Deliver, now);
                let span = n.trace.span_ms(Stage::Capture, Stage::Deliver).unwrap_or(0) as f64;
                spans.push(Stage::Deliver, span);
            }
            self.stage_obs.flush(&mut spans);
        }
        let delivered = self.notifications.notify_batch(batch);
        self.sync_notify_metrics();
        delivered
    }

    /// Materialize the notification for one alert-rule hit. Returns
    /// `None` when the rule is gone: matching and materializing happen
    /// under two separate read-lock acquisitions, so concurrent rule
    /// churn can remove a matched rule in between — dropping the hit is
    /// the outcome had the remove landed one batch earlier.
    fn rule_notification(entry: &AlertRules, id: u64, event: &Event) -> Option<Notification> {
        let meta = entry.meta.get(&id)?;
        let key = match meta.key_field {
            Some(i) => format!(
                "{}:{}",
                meta.name,
                event.payload.get(i).cloned().unwrap_or(Value::Null)
            ),
            None => meta.name.clone(),
        };
        Some(Notification {
            key,
            severity: meta.severity,
            title: format!("rule '{}' matched on {}", meta.name, event.source),
            body: event.payload.to_string(),
            timestamp: event.timestamp,
            trace: event.trace,
            is_retraction: event.is_retraction(),
        })
    }

    fn collect_detectors(&self, event: &Event, out: &mut Vec<Notification>) -> Result<()> {
        use std::sync::atomic::Ordering;
        let detectors = self.detectors.read();
        if let Some(groups) = detectors.get(event.source.as_ref()) {
            for cell in groups {
                let g = &mut *cell.lock();
                if let Some(cond) = &g.condition {
                    if !cond.matches(&event.payload)? {
                        continue;
                    }
                }
                let Some(value) = event.payload.get(g.field).and_then(Value::as_f64) else {
                    continue;
                };
                let key = match g.key_field {
                    Some(i) => format!(
                        "{}:{}",
                        g.name,
                        event.payload.get(i).cloned().unwrap_or(Value::Null)
                    ),
                    None => g.name.clone(),
                };
                let det = g
                    .instances
                    .entry(key.clone())
                    .or_insert_with(|| (g.factory)());
                if let Some(dev) = det.observe(event.timestamp, value) {
                    self.metrics.deviations.fetch_add(1, Ordering::Relaxed);
                    out.push(Notification {
                        key,
                        severity: dev.score,
                        title: format!("{}: {} outside expectation", g.name, dev.value),
                        body: format!(
                            "observed {} expected [{:.3}, {:.3}] (score {:.2})",
                            dev.value, dev.expected_low, dev.expected_high, dev.score
                        ),
                        timestamp: dev.timestamp,
                        trace: event.trace,
                        is_retraction: event.is_retraction(),
                    });
                }
            }
        }
        Ok(())
    }

    fn sync_notify_metrics(&self) {
        use std::sync::atomic::Ordering;
        self.metrics.notifications.store(
            self.notifications.delivered.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        self.metrics.suppressed.store(
            self.notifications.suppressed.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }

    /// Flush trailing windows on a stream (end of input).
    pub fn flush_stream(&self, stream: &str, watermark: TimestampMs) -> Result<Vec<Event>> {
        self.runtime.flush(stream, watermark)
    }
}

/// Held by a sequential pump thread for as long as it runs; see
/// [`EventServer::attach_sequential_pump`].
pub(crate) struct SequentialPumpGuard(Arc<EventServer>);

impl Drop for SequentialPumpGuard {
    fn drop(&mut self) {
        self.0
            .sequential_pumps
            .fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evdb_analytics::ThresholdModel;
    use evdb_types::{DataType, SimClock};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn server() -> (EventServer, Arc<SimClock>) {
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
    fn trigger_capture_to_alert_rule() {
        let (s, _clock) = server();
        let stream = s
            .capture_table("orders", CaptureMechanism::Trigger)
            .unwrap();
        assert_eq!(stream, "orders_changes");
        s.add_alert_rule(
            "big",
            &stream,
            "amt > 1000 AND change = 'insert'",
            2.0,
            None,
        )
        .unwrap();

        s.db()
            .insert(
                "orders",
                Record::from_iter([Value::Int(1), Value::Float(50.0)]),
            )
            .unwrap();
        s.db()
            .insert(
                "orders",
                Record::from_iter([Value::Int(2), Value::Float(5_000.0)]),
            )
            .unwrap();
        let stats = s.pump().unwrap();
        assert_eq!(stats.captured, 2);
        assert_eq!(stats.notified, 1);
        let delivered = s.notifications().drain_delivered();
        assert_eq!(delivered.len(), 1);
        assert!(delivered[0].title.contains("big"));
    }

    #[test]
    fn journal_capture_sees_only_commits() {
        let (s, _clock) = server();
        let stream = s
            .capture_table("orders", CaptureMechanism::Journal)
            .unwrap();
        s.add_alert_rule("any", &stream, "TRUE", 1.0, Some("row_key"))
            .unwrap();
        {
            let mut tx = s.db().begin();
            tx.insert(
                "orders",
                Record::from_iter([Value::Int(1), Value::Float(1.0)]),
            )
            .unwrap();
            tx.rollback();
        }
        s.db()
            .insert(
                "orders",
                Record::from_iter([Value::Int(2), Value::Float(2.0)]),
            )
            .unwrap();
        let stats = s.pump().unwrap();
        assert_eq!(stats.captured, 1); // rollback invisible
    }

    #[test]
    fn query_poll_capture_respects_interval() {
        let (s, clock) = server();
        s.capture_table("orders", CaptureMechanism::QueryPoll { interval_ms: 1_000 })
            .unwrap();
        s.db()
            .insert(
                "orders",
                Record::from_iter([Value::Int(1), Value::Float(1.0)]),
            )
            .unwrap();
        assert_eq!(s.pump().unwrap().captured, 1); // first poll fires
        s.db()
            .insert(
                "orders",
                Record::from_iter([Value::Int(2), Value::Float(2.0)]),
            )
            .unwrap();
        assert_eq!(s.pump().unwrap().captured, 0); // within interval
        clock.advance(1_000);
        assert_eq!(s.pump().unwrap().captured, 1);
    }

    #[test]
    fn cql_over_captured_stream() {
        let (s, _clock) = server();
        let stream = s
            .capture_table("orders", CaptureMechanism::Trigger)
            .unwrap();
        s.register_cql(
            "volume",
            &format!("SELECT count() AS n FROM {stream} [ROWS 2]"),
        )
        .unwrap();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        s.on_query(
            "volume",
            Arc::new(move |_| {
                h.fetch_add(1, Ordering::SeqCst);
            }),
        )
        .unwrap();
        for i in 0..4 {
            s.db()
                .insert(
                    "orders",
                    Record::from_iter([Value::Int(i), Value::Float(1.0)]),
                )
                .unwrap();
        }
        let stats = s.pump().unwrap();
        assert_eq!(stats.derived, 2); // two ROWS-2 windows closed
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn speculative_query_delivers_signed_deltas() {
        // Allowed lateness keeps the finality horizon behind the eager
        // emissions so the 900ms straggler is revisable, not dropped.
        let s = EventServer::in_memory(ServerConfig {
            clock: SimClock::new(TimestampMs(1_000)),
            lateness_ms: 2_000,
            ..Default::default()
        })
        .unwrap();
        s.create_stream(
            "ticks",
            Schema::of(&[("sym", DataType::Str), ("px", DataType::Float)]),
        )
        .unwrap();
        s.register_cql(
            "spec",
            "SELECT count() AS n FROM ticks [RANGE 1 s] EMIT SPECULATIVE",
        )
        .unwrap();
        let seen: Arc<parking_lot::Mutex<Vec<(i64, bool)>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        s.on_query_updates("spec", move |row, retract| {
            if let Some(Value::Int(n)) = row.get(0) {
                sink.lock().push((*n, retract));
            }
        })
        .unwrap();
        let tick = |px: f64| Record::from_iter([Value::from("A"), Value::Float(px)]);
        s.ingest("ticks", TimestampMs(100), tick(1.0)).unwrap();
        // Event time crosses the pane end → eager emission of n=1…
        s.ingest("ticks", TimestampMs(1_200), tick(1.0)).unwrap();
        // …then a late event revises it: retract n=1, insert n=2.
        s.ingest("ticks", TimestampMs(900), tick(1.0)).unwrap();
        assert_eq!(
            *seen.lock(),
            vec![(1, false), (1, true), (2, false)]
        );
        // The revision is visible in the exposition (D9 no-silent-work).
        let text = s.registry().render();
        assert!(text.contains("evdb_cq_retractions_total 1"), "{text}");
        assert!(text.contains("evdb_cq_pane_reopens_total 1"), "{text}");
        assert!(text.contains("evdb_cq_late_admitted_total 1"), "{text}");
    }

    #[test]
    fn detectors_fire_per_key() {
        let (s, _clock) = server();
        s.create_stream(
            "meters",
            Schema::of(&[("meter", DataType::Str), ("kw", DataType::Float)]),
        )
        .unwrap();
        s.add_detector(
            "load",
            "meters",
            "kw",
            Some("meter"),
            UpdatePolicy::Always,
            || Box::new(ThresholdModel::new(0.0, 100.0)),
        )
        .unwrap();
        let mut notified = 0;
        for (m, kw) in [("m1", 50.0), ("m1", 150.0), ("m2", 99.0), ("m2", 500.0)] {
            let st = s
                .ingest(
                    "meters",
                    s.now(),
                    Record::from_iter([Value::from(m), Value::Float(kw)]),
                )
                .unwrap();
            notified += st.notified;
        }
        assert_eq!(notified, 2);
        assert_eq!(s.metrics().snapshot().deviations, 2);
    }

    #[test]
    fn detector_when_condition_gates_observation() {
        let (s, _clock) = server();
        s.create_stream(
            "meters",
            Schema::of(&[("meter", DataType::Str), ("kw", DataType::Float)]),
        )
        .unwrap();
        let cond = evdb_expr::parse("meter = 'm1'").unwrap();
        s.add_detector_when(
            "load",
            "meters",
            "kw",
            Some("meter"),
            Some(&cond),
            UpdatePolicy::Always,
            || Box::new(ThresholdModel::new(0.0, 100.0)),
        )
        .unwrap();
        let mut notified = 0;
        // m2's excursion is filtered out by the WHEN predicate; only
        // m1's out-of-band reading fires.
        for (m, kw) in [("m1", 150.0), ("m2", 500.0)] {
            let st = s
                .ingest(
                    "meters",
                    s.now(),
                    Record::from_iter([Value::from(m), Value::Float(kw)]),
                )
                .unwrap();
            notified += st.notified;
        }
        assert_eq!(notified, 1);
        assert_eq!(s.metrics().snapshot().deviations, 1);
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
    fn streams_without_rules_skip_the_matching_stage() {
        let (s, clock) = server();
        s.create_stream("t", Schema::of(&[("v", DataType::Float)]))
            .unwrap();
        let candidates = s.registry().counter("evdb_rules_candidates_total");
        let ingest = |v: f64| {
            s.ingest("t", clock.now(), Record::from_iter([Value::Float(v)]))
                .unwrap()
                .notified
        };

        // A rule that fails to register leaves no rule set behind.
        assert!(s.add_alert_rule("bad", "t", "ghost > 1", 1.0, None).is_err());
        assert!(s.alert_rules.read().is_empty());

        let any = s.add_alert_rule("any", "t", "v * 2 > 1", 1.0, None).unwrap();
        let hot = s.add_alert_rule("hot", "t", "v > 10", 1.0, None).unwrap();
        assert_eq!(ingest(50.0), 2);
        assert_eq!(candidates.get(), 2);

        // Removing the last rule drops the stream's rule set, so further
        // events evaluate no rule predicate at all.
        s.remove_alert_rule("t", any).unwrap();
        s.remove_alert_rule("t", hot).unwrap();
        assert!(s.alert_rules.read().is_empty());
        assert!(s.remove_alert_rule("t", hot).is_err());
        assert_eq!(ingest(50.0), 0);
        assert_eq!(candidates.get(), 2);

        // A recreated rule set never reissues an id.
        let again = s.add_alert_rule("hot", "t", "v > 10", 1.0, None).unwrap();
        assert!(again > hot);
        assert_eq!(ingest(50.0), 1);
    }
}
