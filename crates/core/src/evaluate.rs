//! The evaluate stage (§2.2.c): history append, continuous queries,
//! alert rules and deviation detectors over a batch of routed events.
//!
//! [`Evaluate`] owns the rule and detector registries and the evaluation
//! scratch of caller-thread cycles. It takes a `Vec<Event>` (with the
//! [`EvalScratch`] and the cycle's `StageBatch`) and hands forward the
//! batch's notifications and its first error; it never delivers them
//! itself — delivery is the notify stage's, because the VIRT filter is
//! stateful per key. It holds no handle to any stage after it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use evdb_analytics::detector::UpdatePolicy;
use evdb_analytics::{DeviationDetector, ExpectationModel};
use evdb_cq::StreamRuntime;
use evdb_expr::{batch_stats, compiler_stats, CompiledExpr, Expr};
use evdb_obs::Registry;
use evdb_rules::{IndexedMatcher, MatchScratch, Matcher, Rule};
use evdb_types::{Error, Event, IdGenerator, Record, Result, Stage, TimestampMs, Value};
use parking_lot::{Mutex, RwLock};

use crate::history::HistorySlot;
use crate::metrics::{bridge, relaxed, Metrics, StageBatch, StageObs};
use crate::notify::Notification;

/// Reusable buffers for [`EventServer::evaluate_events`]: the batch-VM
/// scratch plus the per-batch staging vectors. Hold one per evaluating
/// thread; buffers size themselves to the batch on first use and are
/// reused afterwards (D15).
///
/// [`EventServer::evaluate_events`]: crate::EventServer::evaluate_events
#[derive(Default)]
pub struct EvalScratch {
    /// Expression-VM batch scratch (continuous-query head filters).
    expr: evdb_expr::BatchScratch,
    /// Indexed-matcher batch scratch (alert-rule verification).
    rules: MatchScratch,
    /// Per-event continuous-query results (an `Err` withholds the event
    /// from the stages after).
    cq: Vec<Result<Vec<Event>>>,
    /// Per-event alert-rule hits, re-scattered from the per-stream runs:
    /// ranges into the matcher scratch's ids (empty for an event
    /// without rules).
    hits: Vec<Result<Range<usize>>>,
    /// Distinct sources with registered rules, in first-seen order.
    sources: Vec<Arc<str>>,
    /// Event indices of the stream currently being matched.
    idxs: Vec<u32>,
    /// Per-record outputs of one `match_batch` run: ranges into the
    /// matcher scratch's ids.
    rule_out: Vec<Result<Range<usize>>>,
    /// The first error of the last batch, for the by-hand entry points
    /// that return it (`pump`, `ingest`).
    first_error: Option<Error>,
}

/// One stream's alert rules. An entry exists only while the stream has
/// at least one rule, so streams without rules skip the matching stage.
struct AlertRules {
    matcher: IndexedMatcher,
    meta: IdMap<AlertMeta>,
}

/// A map keyed by rule id. Ids are minted here (`Evaluate::rule_ids`),
/// never supplied by a client, so SipHash's resistance to chosen keys
/// buys nothing: a hit's lookup hashes its id with one multiply.
type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// Fibonacci hashing of a `u64`: the multiply spreads consecutive ids
/// over the table's high (tag) bits and keeps the low (bucket) bits
/// distinct.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// What a rule's hits say. `name` (the key of a rule without a key
/// field) and `title` are rendered once, here, and shared by every hit.
struct AlertMeta {
    name: Arc<str>,
    title: Arc<str>,
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

/// What one caller-thread evaluation hands the notify stage and the cycle.
pub(crate) struct Evaluated {
    pub(crate) derived: u64,
    pub(crate) errors: u64,
    pub(crate) first_error: Option<Error>,
    pub(crate) notes: Vec<Notification>,
}

/// The evaluate stage; see the module documentation.
pub(crate) struct Evaluate {
    runtime: Arc<StreamRuntime>,
    metrics: Arc<Metrics>,
    registry: Arc<Registry>,
    stage_obs: StageObs,
    /// Historical event store (DESIGN.md D14); empty until
    /// `enable_history`. `Arc` because the metric bridge reads it from
    /// gauge closures.
    pub(crate) history: Arc<HistorySlot>,
    /// Read-mostly: rule registration is rare and runs beside the cycle,
    /// matching is per-event ([`IndexedMatcher::match_record`] takes
    /// `&self`), so a registration never waits for a cycle to finish.
    rules: RwLock<HashMap<String, AlertRules>>,
    /// Alert-rule ids, server-wide so an id is never issued twice even
    /// when a stream's rule set is dropped and recreated.
    rule_ids: IdGenerator,
    /// Each detector group has its own lock so a registration, or an
    /// `ingest` beside the cycle, touching a different group (or stream)
    /// never contends with it; the outer map is read-mostly like `rules`.
    detectors: RwLock<HashMap<String, Vec<Mutex<DetectorGroup>>>>,
    /// Evaluation scratch of cycles run on a caller's thread (`pump`,
    /// `ingest`, the pump thread, stagers); see [`Self::with_scratch`].
    scratch: Mutex<EvalScratch>,
}

impl Evaluate {
    pub(crate) fn new(
        runtime: &Arc<StreamRuntime>,
        metrics: &Arc<Metrics>,
        registry: &Arc<Registry>,
    ) -> Evaluate {
        let history = Arc::new(HistorySlot::default());
        if registry.is_enabled() {
            bridge(registry, metrics, &[
                ("evdb_core_events_processed", |m| relaxed(&m.events_processed)),
                ("evdb_core_derived_events", |m| relaxed(&m.derived_events)),
                ("evdb_core_deviations", |m| relaxed(&m.deviations)),
            ]);
            // Out-of-order delta accounting (D12): retractions emitted,
            // already-emitted panes reopened, late events admitted vs dropped,
            // and duplicate deliveries suppressed by the replay-dedup window
            // beside the keys it evicted to stay bounded; partial pattern
            // matches shed at a matcher's cap, and the pane tables windowed
            // aggregates share (D5, D9).
            bridge(registry, runtime, &[
                ("evdb_cq_window_memory", |rt| rt.window_memory() as f64),
                ("evdb_cq_pane_tables", |rt| rt.pane_tables() as f64),
                ("evdb_cq_pattern_overflow_drops_total", |rt| rt.cq_delta_stats().overflow_drops as f64),
                ("evdb_cq_retractions_total", |rt| rt.cq_delta_stats().retractions as f64),
                ("evdb_cq_pane_reopens_total", |rt| rt.cq_delta_stats().pane_reopens as f64),
                ("evdb_cq_late_admitted_total", |rt| rt.cq_delta_stats().late_admitted as f64),
                ("evdb_cq_late_dropped_total", |rt| rt.cq_delta_stats().late_events as f64),
                ("evdb_cq_dup_dropped_total", |rt| rt.dup_dropped() as f64),
                ("evdb_cq_dedup_evicted_total", |rt| rt.dedup_evicted() as f64),
            ]);
            // Expression compiler and batch VM, process-wide (D9
            // no-silent-caps: every fold and precompiled LIKE is
            // accounted; batches over batched records is the realized
            // amortization of the batched hot path, D15).
            bridge(registry, &Arc::new(()), &[
                ("evdb_expr_compiled_total", |_| compiler_stats().compiled_total as f64),
                ("evdb_expr_folded_subtrees_total", |_| compiler_stats().folded_subtrees as f64),
                ("evdb_expr_folded_nodes_total", |_| compiler_stats().folded_nodes as f64),
                ("evdb_expr_like_precompiled_total", |_| compiler_stats().like_precompiled as f64),
                ("evdb_expr_batches_total", |_| batch_stats().0 as f64),
                ("evdb_expr_batched_records_total", |_| batch_stats().1 as f64),
            ]);
            // Historical event store (D14). Registered even while history is
            // disabled (they read zero) so the exposition's metric set does
            // not depend on whether enable_history ran.
            bridge(registry, &history, &[
                ("evdb_store_segments", |h| h.stats().0 as f64),
                ("evdb_store_appended_total", |h| h.stats().1.appended as f64),
                ("evdb_store_freezes_total", |h| h.stats().1.freezes as f64),
                ("evdb_store_compactions_total", |h| h.stats().1.compactions as f64),
                ("evdb_store_segments_pruned_total", |h| h.stats().1.segments_pruned as f64),
                ("evdb_store_zones_pruned_total", |h| h.stats().1.zones_pruned as f64),
                ("evdb_store_replayed_total", |h| h.stats().1.replayed as f64),
            ]);
        }
        Evaluate {
            stage_obs: StageObs::bind(registry),
            registry: Arc::clone(registry),
            history,
            rules: RwLock::new(HashMap::new()),
            rule_ids: IdGenerator::starting_at(1),
            detectors: RwLock::new(HashMap::new()),
            scratch: Mutex::new(EvalScratch::default()),
            runtime: Arc::clone(runtime),
            metrics: Arc::clone(metrics),
        }
    }

    /// Register an alert rule on `stream`; returns its id.
    pub(crate) fn add_alert_rule(
        &self,
        name: &str,
        stream: &str,
        predicate: &str,
        severity: f64,
        key_field: Option<&str>,
    ) -> Result<u64> {
        let schema = self.runtime.stream_schema(stream)?;
        let expr = evdb_expr::parse(predicate)?;
        let key_field = key_field.map(|f| field_index(&schema, f, "key field")).transpose()?;
        let id = self.rule_ids.next_id();
        let rule = Rule::new(id, name, expr);
        let meta = AlertMeta {
            name: name.into(),
            title: format!("rule '{name}' matched on {stream}").into(),
            severity,
            key_field,
        };
        let mut rules = self.rules.write();
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
                        meta: IdMap::from_iter([(id, meta)]),
                    },
                );
            }
        }
        Ok(id)
    }

    /// Remove an alert rule; a stream's last rule takes its rule set along.
    pub(crate) fn remove_alert_rule(&self, stream: &str, id: u64) -> Result<()> {
        let mut rules = self.rules.write();
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

    /// Attach a grouped deviation detector to `stream`, its optional WHEN
    /// predicate bound and compiled to bytecode once, here.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn add_detector<F>(
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
        let condition = condition
            .map(|e| e.bind_predicate(&schema).map(|b| CompiledExpr::compile(&b)))
            .transpose()?;
        let field = field_index(&schema, field, "field")?;
        let key_field = key_field.map(|f| field_index(&schema, f, "key field")).transpose()?;
        self.detectors
            .write()
            .entry(stream.to_string())
            .or_default()
            .push(Mutex::new(DetectorGroup {
                name: name.to_string(),
                field,
                key_field,
                condition,
                factory: Box::new(move || DeviationDetector::with_policy(model_factory(), policy)),
                instances: HashMap::new(),
            }));
        Ok(())
    }

    /// Run `f` with the stage's evaluation scratch. The scratch is taken
    /// out of its slot for the call, never held locked across it: a
    /// subscriber that re-enters `ingest` finds an empty scratch (and
    /// leaves its own behind) instead of a deadlock.
    fn with_scratch<T>(&self, f: impl FnOnce(&mut EvalScratch) -> T) -> T {
        let mut scratch = std::mem::take(&mut *self.scratch.lock());
        let out = f(&mut scratch);
        *self.scratch.lock() = scratch;
        out
    }

    /// [`evaluate_events`](Self::evaluate_events) on the caller's thread
    /// with the stage's own scratch: what the inline cycle, `pump()` and
    /// `ingest()` run.
    pub(crate) fn evaluate(
        &self,
        events: &mut [Event],
        now: TimestampMs,
        batch: &mut StageBatch,
    ) -> Evaluated {
        let mut notes = Vec::new();
        self.with_scratch(|scratch| {
            let (derived, errors) = self.evaluate_events(events, now, batch, scratch, &mut notes);
            Evaluated {
                derived,
                errors,
                first_error: scratch.first_error.take(),
                notes,
            }
        })
    }

    /// Re-feed historical events through the continuous-query runtime's
    /// dedup-bypassing replay path; returns the derived-event count, or
    /// the first event's error once the whole range has been fed.
    pub(crate) fn replay(&self, events: &[Event]) -> Result<u64> {
        self.with_scratch(|scratch| {
            self.runtime
                .push_events_replay(events, &mut scratch.expr, &mut scratch.cq);
            scratch
                .cq
                .drain(..)
                .try_fold(0u64, |n, r| r.map(|d| n + d.len() as u64))
        })
    }

    /// Evaluate a batch of routed events — continuous queries, alert
    /// rules, detectors — *collecting* its notifications instead of
    /// delivering them: the one evaluation path (D15); see
    /// [`EventServer::evaluate_events`](crate::EventServer::evaluate_events).
    pub(crate) fn evaluate_events(
        &self,
        events: &mut [Event],
        now: TimestampMs,
        batch: &mut StageBatch,
        scratch: &mut EvalScratch,
        notes: &mut Vec<Notification>,
    ) -> (u64, u64) {
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
        // rule-major through the batch VM; hits land back per event, as
        // ranges into one flat id buffer. One read lock covers matching
        // and materializing.
        scratch.hits.clear();
        scratch.hits.resize_with(events.len(), || Ok(0..0));
        scratch.rules.clear_ids();
        let rules = self.rules.read();
        scratch.sources.clear();
        if !rules.is_empty() {
            let mut i = 0;
            for run in events.chunk_by(|a, b| a.source == b.source) {
                let src = &run[0].source;
                if !scratch.sources.contains(src)
                    && rules.contains_key(src.as_ref())
                    && scratch.cq[i..i + run.len()].iter().any(Result::is_ok)
                {
                    scratch.sources.push(Arc::clone(src));
                }
                i += run.len();
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
                scratch.hits[scratch.idxs[k] as usize] = hit;
            }
        }

        // Per-event tail, in arrival order: materialize rule hits, then
        // run the (stateful) detectors, so every notification lands in
        // `notes` in event order. An event's notes go straight into
        // `notes` and are cut back to its mark if any of its evaluation
        // failed; room for every rule hit is made once. The detector map
        // is read-locked once per batch, and each run of same-stream
        // events resolves its rule set and detector groups once.
        notes.reserve(scratch.rules.ids().len());
        let detectors = self.detectors.read();
        let mut i = 0;
        for run in events.chunk_by_mut(|a, b| a.source == b.source) {
            let source = run[0].source.as_ref();
            let entry = rules.get(source);
            let groups = if detectors.is_empty() {
                None
            } else {
                detectors.get(source)
            };
            for event in run {
                let mark = notes.len();
                let cq = std::mem::replace(&mut scratch.cq[i], Ok(Vec::new()));
                let hits = std::mem::replace(&mut scratch.hits[i], Ok(0..0));
                i += 1;
                let outcome = cq.and(hits).and_then(|ids| {
                    if let Some(entry) = entry {
                        rule_notifications(entry, &scratch.rules.ids()[ids], event, notes);
                    }
                    match groups {
                        Some(groups) => self.collect_detectors(groups, event, notes),
                        None => Ok(()),
                    }
                });
                match outcome {
                    Ok(()) => self.stamp_evaluated(event, now, batch),
                    Err(e) => {
                        notes.truncate(mark);
                        errors += 1;
                        scratch.first_error.get_or_insert(e);
                    }
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

    /// Feed `event` to its stream's detector `groups`, collecting the
    /// deviations they report.
    fn collect_detectors(
        &self,
        groups: &[Mutex<DetectorGroup>],
        event: &Event,
        out: &mut Vec<Notification>,
    ) -> Result<()> {
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
            let key = scoped_key(&g.name, g.key_field, event);
            let det = g
                .instances
                .entry(key.clone())
                .or_insert_with(|| (g.factory)());
            if let Some(dev) = det.observe(event.timestamp, value) {
                self.metrics.deviations.fetch_add(1, Ordering::Relaxed);
                out.push(Notification {
                    key: key.into(),
                    severity: dev.score,
                    title: format!("{}: {} outside expectation", g.name, dev.value).into(),
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
        Ok(())
    }
}

/// Materialize the notifications of one event's alert-rule hits into
/// `out`. Keys and titles are the rules' shared strings (a key is
/// formatted only for a rule with a key field); the event's body is
/// rendered once, for its first hit, and copied into the others.
fn rule_notifications(entry: &AlertRules, ids: &[u64], event: &Event, out: &mut Vec<Notification>) {
    let first = out.len();
    out.extend(ids.iter().filter_map(|id| entry.meta.get(id)).map(|meta| Notification {
        key: match meta.key_field {
            None => Arc::clone(&meta.name),
            Some(_) => scoped_key(&meta.name, meta.key_field, event).into(),
        },
        severity: meta.severity,
        title: Arc::clone(&meta.title),
        body: String::new(),
        timestamp: event.timestamp,
        trace: event.trace,
        is_retraction: event.is_retraction(),
    }));
    if let Some((head, rest)) = out[first..].split_first_mut() {
        head.body = render_body(&event.payload);
        for n in rest {
            n.body.clone_from(&head.body);
        }
    }
}

/// `record`'s text (its `Display`), written into a `String` sized up
/// front so that rendering allocates once.
fn render_body(record: &Record) -> String {
    use std::fmt::Write;
    // Per value: its text (a number's longest usual form) and ", ".
    let hint: usize = record
        .values()
        .iter()
        .map(|v| match v {
            Value::Str(s) => s.len() + 4,
            Value::Bytes(b) => 2 * b.len() + 5,
            _ => 24,
        })
        .sum();
    let mut body = String::with_capacity(hint + 2);
    // Writing into a `String` cannot fail.
    let _ = write!(body, "{record}");
    body
}

/// A rule's or detector's VIRT key: its name, scoped by the event's
/// `key_field` value when it has one (`"load:m1"`).
fn scoped_key(name: &str, key_field: Option<usize>, event: &Event) -> String {
    match key_field {
        Some(i) => format!(
            "{name}:{}",
            event.payload.get(i).cloned().unwrap_or(Value::Null)
        ),
        None => name.to_string(),
    }
}

/// The index of `field` in `schema`, or a schema error naming it as `what`.
fn field_index(schema: &evdb_types::Schema, field: &str, what: &str) -> Result<usize> {
    schema
        .index_of(field)
        .ok_or_else(|| Error::Schema(format!("unknown {what} '{field}'")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::tests::server;
    use crate::server::{CaptureMechanism, ServerConfig};
    use crate::EventServer;
    use evdb_analytics::ThresholdModel;
    use evdb_types::{Clock, DataType, Schema, SimClock};
    use std::sync::atomic::AtomicUsize;

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
    fn notifications_read_exactly() {
        let (s, clock) = server();
        s.create_stream(
            "ticks",
            Schema::of(&[("sym", DataType::Str), ("px", DataType::Float)]),
        )
        .unwrap();
        s.add_alert_rule("hot", "ticks", "px > 10", 2.0, None).unwrap();
        s.add_alert_rule("sym_hot", "ticks", "px > 20", 3.5, Some("sym"))
            .unwrap();
        s.add_detector(
            "band",
            "ticks",
            "px",
            Some("sym"),
            UpdatePolicy::Always,
            || Box::new(ThresholdModel::new(0.0, 40.0)),
        )
        .unwrap();
        let tick = Record::from_iter([Value::from("O'Brien"), Value::Float(50.0)]);
        assert_eq!(s.ingest("ticks", clock.now(), tick).unwrap().notified, 3);
        let got: Vec<_> = s
            .notifications()
            .drain_delivered()
            .into_iter()
            .map(|n| (n.key.to_string(), n.title.to_string(), n.body, n.severity))
            .collect();
        let row = |key: &str, title: &str, body: &str, severity: f64| {
            (key.to_string(), title.to_string(), body.to_string(), severity)
        };
        assert_eq!(
            got,
            vec![
                row("hot", "rule 'hot' matched on ticks", "['O''Brien', 50.0]", 2.0),
                row(
                    "sym_hot:'O''Brien'",
                    "rule 'sym_hot' matched on ticks",
                    "['O''Brien', 50.0]",
                    3.5
                ),
                row(
                    "band:'O''Brien'",
                    "band: 50 outside expectation",
                    "observed 50 expected [0.000, 40.000] (score 0.50)",
                    0.5
                ),
            ]
        );
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
        assert!(s.evaluate.rules.read().is_empty());

        let any = s.add_alert_rule("any", "t", "v * 2 > 1", 1.0, None).unwrap();
        let hot = s.add_alert_rule("hot", "t", "v > 10", 1.0, None).unwrap();
        assert_eq!(ingest(50.0), 2);
        assert_eq!(candidates.get(), 2);

        // Removing the last rule drops the stream's rule set, so further
        // events evaluate no rule predicate at all.
        s.remove_alert_rule("t", any).unwrap();
        s.remove_alert_rule("t", hot).unwrap();
        assert!(s.evaluate.rules.read().is_empty());
        assert!(s.remove_alert_rule("t", hot).is_err());
        assert_eq!(ingest(50.0), 0);
        assert_eq!(candidates.get(), 2);

        // A recreated rule set never reissues an id.
        let again = s.add_alert_rule("hot", "t", "v > 10", 1.0, None).unwrap();
        assert!(again > hot);
        assert_eq!(ingest(50.0), 1);
    }
}
