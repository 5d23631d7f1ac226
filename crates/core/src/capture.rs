//! The capture stage (§2.2.a–b): where events enter the engine.
//!
//! [`Capture`] owns everything upstream of evaluation — the capture
//! tasks (one per captured table: trigger, journal miner or query-poll
//! snapshot), the bounded admission buffer producers stage into
//! (DESIGN.md D10), the per-stream shed priorities and the event-id
//! generator — and hands the next stage one typed value: [`Drained`],
//! the ready-to-evaluate events in arrival order.
//! It holds no handle to any stage after it.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use evdb_cq::delta::{change_schema, change_to_event};
use evdb_cq::StreamRuntime;
use evdb_obs::Gauge;
use evdb_storage::{ChangeEvent, Database, JournalMiner, QuerySnapshot, TriggerOps, TriggerTiming};
use evdb_types::{Error, Event, EventId, IdGenerator, Record, Result, Schema, Stage, TimestampMs};
use parking_lot::{Mutex, RwLock};

use crate::admission::{AdmissionControl, Staged};
use crate::metrics::{bridge, relaxed, Metrics, StageBatch, StageObs};
use crate::server::ServerConfig;

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

/// What one drain of the capture stage collected
/// ([`EventServer::drain`](crate::EventServer::drain)).
#[derive(Debug)]
#[must_use = "a failed capture poll is reported only here"]
pub struct Drained {
    /// Ready-to-evaluate events, in capture order.
    pub events: Vec<Event>,
    /// The first capture poll that failed; `events` holds what the
    /// staged buffer and every other capture gave all the same.
    pub poll_error: Option<Error>,
}

/// The capture stage; see the module documentation.
pub(crate) struct Capture {
    db: Arc<Database>,
    runtime: Arc<StreamRuntime>,
    metrics: Arc<Metrics>,
    stage_obs: StageObs,
    /// Committed LSNs not yet mined (refreshed by maintenance drains).
    journal_lag: Arc<Gauge>,
    ids: IdGenerator,
    /// The bounded staging buffer of trigger captures and `ingest_async`.
    pub(crate) admission: Arc<AdmissionControl>,
    tasks: Mutex<Vec<CaptureTask>>,
    /// Per-stream shed priority for `OverloadPolicy::ShedLowest`
    /// (default 0). Shared with trigger closures, hence the `Arc`.
    priorities: Arc<RwLock<HashMap<String, i64>>>,
}

impl Capture {
    pub(crate) fn new(
        db: &Arc<Database>,
        runtime: &Arc<StreamRuntime>,
        metrics: &Arc<Metrics>,
        config: &ServerConfig,
    ) -> Capture {
        let registry = &config.registry;
        let admission = Arc::new(AdmissionControl::new(config.ingest_capacity, config.overload));
        if registry.is_enabled() {
            bridge(registry, metrics, &[
                ("evdb_core_events_captured", |m| relaxed(&m.events_captured)),
            ]);
            // Admission control: depth plus the no-silent-caps counters
            // (every shed, rejection and dropped capture is visible here).
            bridge(registry, &admission, &[
                ("evdb_ingest_depth", |a| a.depth() as f64),
                ("evdb_ingest_shed_total", |a| a.shed_total() as f64),
                ("evdb_ingest_rejected_total", |a| a.rejected_total() as f64),
                ("evdb_ingest_dropped_capture_total", |a| a.dropped_capture_total() as f64),
            ]);
        }
        Capture {
            stage_obs: StageObs::bind(registry),
            journal_lag: registry.gauge("evdb_storage_journal_lag"),
            ids: IdGenerator::default(),
            admission,
            tasks: Mutex::new(Vec::new()),
            priorities: Arc::new(RwLock::new(HashMap::new())),
            db: Arc::clone(db),
            runtime: Arc::clone(runtime),
            metrics: Arc::clone(metrics),
        }
    }

    /// Capture a table's changes into stream `"<table>_changes"`.
    pub(crate) fn capture_table(&self, table: &str, mechanism: CaptureMechanism) -> Result<String> {
        let t = self.db.table(table)?;
        let stream = format!("{table}_changes");
        let key_type = t.schema().fields()[t.def().pk].dtype;
        let schema = change_schema(t.schema(), key_type)?;
        self.runtime.create_stream(&stream, Arc::clone(&schema))?;

        let kind = match mechanism {
            CaptureMechanism::Trigger => {
                let admission = Arc::clone(&self.admission);
                let priorities = Arc::clone(&self.priorities);
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
        // Return the name built above: the task list is shared with
        // concurrent captures, so its last entry may be another's.
        self.tasks.lock().push(CaptureTask {
            stream: stream.clone(),
            table: table.to_string(),
            schema,
            kind,
        });
        Ok(stream)
    }

    /// Deregister a capture task (and its row trigger).
    pub(crate) fn remove_capture(&self, stream: &str) -> Result<()> {
        let task = {
            let mut tasks = self.tasks.lock();
            let pos = tasks
                .iter()
                .position(|t| t.stream == stream)
                .ok_or_else(|| Error::NotFound(format!("capture for '{stream}'")))?;
            tasks.remove(pos)
        };
        if matches!(task.kind, CaptureKind::Trigger) {
            self.db.drop_trigger(&format!("__cap_{stream}"))?;
        }
        Ok(())
    }

    /// Set a stream's shed priority.
    pub(crate) fn set_priority(&self, stream: &str, priority: i64) -> Result<()> {
        self.runtime.stream_schema(stream)?;
        self.priorities.write().insert(stream.to_string(), priority);
        Ok(())
    }

    /// Reset the baseline of `stream`'s pull-based captures from current
    /// table state: cursor `resync` for journal miners,
    /// `QuerySnapshot::rebaseline` for query-poll captures.
    pub(crate) fn rebaseline(&self, stream: &str) -> Result<()> {
        for task in self.tasks.lock().iter_mut().filter(|t| t.stream == stream) {
            match &mut task.kind {
                CaptureKind::Journal(miner) => _ = miner.resync(&self.db),
                CaptureKind::Snapshot { snapshot, .. } => _ = snapshot.rebaseline(&self.db)?,
                CaptureKind::Trigger => {}
            }
        }
        Ok(())
    }

    /// Stage one external event for the next cycle under its stream's
    /// shed priority. `quiet` pushes without waking the pump: the caller
    /// runs the cycle itself ([`AdmissionControl::push`]).
    pub(crate) fn offer(
        &self,
        stream: &str,
        ts: TimestampMs,
        payload: Record,
        quiet: bool,
    ) -> Result<()> {
        let item = Staged::External(self.make_event(stream, ts, payload)?);
        let pri = self.priorities.read().get(stream).copied().unwrap_or(0);
        if quiet {
            self.admission.push(pri, item)
        } else {
            self.admission.admit(pri, item)
        }
    }

    /// One external event captured for evaluation on the caller's thread
    /// (`ingest`): counted and stamped as a drain would.
    pub(crate) fn capture_one(&self, stream: &str, ts: TimestampMs, row: Record) -> Result<Event> {
        let mut event = self.make_event(stream, ts, row)?;
        self.metrics.events_captured.fetch_add(1, Ordering::Relaxed);
        if self.stage_obs.enabled {
            event.trace.stamp(Stage::Capture, event.timestamp);
            self.stage_obs
                .observe(Stage::Capture, self.db.now().since(event.timestamp).max(0) as f64);
        }
        Ok(event)
    }

    /// An external event with an id minted here: it carries the
    /// stream's shared name and is marked [`Event::minted`], so the
    /// replay-dedup window never sees it.
    fn make_event(&self, stream: &str, timestamp: TimestampMs, payload: Record) -> Result<Event> {
        let (source, schema) = self.runtime.stream_source(stream)?;
        schema.validate(&payload)?;
        let mut event = Event::new(
            EventId(self.ids.next_id()),
            source,
            timestamp,
            payload,
            schema,
        );
        event.minted = true;
        Ok(event)
    }

    /// The first step of every cycle; see
    /// [`EventServer::drain`](crate::EventServer::drain); a pump's tick
    /// skips the `staged` buffer ([`crate::pump::spawn_pump`]).
    pub(crate) fn drain(&self, maintenance: bool, staged: bool) -> Drained {
        let now = self.db.now();
        let mut events = Vec::new();
        let mut batch = StageBatch::default();
        if staged {
            self.collect_staged(now, &mut events, &mut batch);
        }
        let poll_error = if maintenance {
            self.poll_captures(now, &mut events, &mut batch)
        } else {
            None
        };
        self.stage_obs.flush(&mut batch);
        Drained { events, poll_error }
    }

    /// Drain the staged buffer (ingest_async producers + trigger
    /// captures) strictly in arrival order: the admission queue is the
    /// single cross-stream sequence, so two interleaved producers are
    /// evaluated exactly as they arrived (regression-tested in
    /// tests/admission.rs).
    fn collect_staged(&self, now: TimestampMs, events: &mut Vec<Event>, batch: &mut StageBatch) {
        // Change-stream schemas by stream name, looked up under the
        // `tasks` lock on the first staged change of this drain: an
        // ingest_async-only drain takes no lock and builds no map.
        let mut schemas: Option<HashMap<String, Arc<Schema>>> = None;
        let mut dropped: HashMap<String, u64> = HashMap::new();
        // Counted once per drain: the counter shares its cache line with
        // `events_processed`, which embedders poll.
        let mut captured = 0u64;
        for item in self.admission.drain() {
            match item {
                Staged::External(mut event) => {
                    captured += 1;
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
                        self.tasks
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
        if captured > 0 {
            self.metrics.events_captured.fetch_add(captured, Ordering::Relaxed);
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
        for task in self.tasks.lock().iter_mut() {
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
                    if last_poll.is_some_and(|t| now.since(t) < *interval_ms) {
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

        for (stream, schema, changes) in batches {
            for change in changes {
                events.push(self.change_into_event(&stream, &schema, change, now, batch));
            }
        }
        first_error
    }

    /// Convert one captured [`ChangeEvent`] into the stream event the
    /// pipeline evaluates, recording capture-side metrics. A journal-mined
    /// change keeps its LSN as the event id, which a re-mined prefix
    /// repeats; any other change gets an id minted here, and is marked
    /// so ([`Event::minted`]).
    fn change_into_event(
        &self,
        stream: &str,
        schema: &Arc<Schema>,
        change: ChangeEvent,
        now: TimestampMs,
        batch: &mut StageBatch,
    ) -> Event {
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
        event.minted = change.lsn.is_none();
        self.metrics.events_captured.fetch_add(1, Ordering::Relaxed);
        let lat = now.since(change.timestamp) as f64;
        self.metrics.observe_latency(lat);
        if self.stage_obs.enabled {
            batch.push(Stage::Capture, lat.max(0.0));
        }
        event
    }

    /// Stamp the route stage on an event at `now` and queue the
    /// capture→route span: the last thing done to an event before it is
    /// evaluated (one clock read and one flush per batch; stage
    /// histograms are ms-granular).
    #[inline]
    pub(crate) fn route(&self, event: &mut Event, now: TimestampMs, batch: &mut StageBatch) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::tests::server;
    use evdb_types::{DataType, Value};

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
    fn concurrent_captures_each_get_their_own_stream() {
        let (s, _clock) = server();
        for round in 0..16 {
            let tables: Vec<String> = (0..8).map(|i| format!("r{round}_t{i}")).collect();
            for t in &tables {
                s.db()
                    .create_table(t, Schema::of(&[("id", DataType::Int)]), "id")
                    .unwrap();
            }
            let start = std::sync::Barrier::new(tables.len());
            std::thread::scope(|scope| {
                for t in &tables {
                    let (s, start) = (&s, &start);
                    scope.spawn(move || {
                        start.wait();
                        let stream = s.capture_table(t, CaptureMechanism::Trigger).unwrap();
                        assert_eq!(stream, format!("{t}_changes"));
                    });
                }
            });
        }
    }
}
