//! The stream runtime: named streams, registered continuous queries,
//! subscribers and watermark bookkeeping.
//!
//! Locking is fine-grained so that registration, replay and pushes from
//! different threads (the core crate's cycle, an inline `ingest`) never
//! serialise on one global mutex: the stream and query *maps* are
//! behind `RwLock`s (read-mostly — registration is rare, pushes are
//! constant), while each stream's watermark state and each routing unit
//! — a query's pipeline, or a pane table shared by windowed aggregates
//! and the queries reading it — live behind their own `Mutex`. Two
//! threads pushing into different streams never contend; two pushing
//! into the same stream serialise only on that stream's entry.
//!
//! Watermarks are derived from event time: `max event time seen −
//! allowed lateness`, advanced on every push, so downstream windows
//! close deterministically with no wall-clock dependence.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use evdb_obs::{Counter, Registry};
use evdb_types::{Error, Event, EventId, IdGenerator, Record, Result, Schema, TimestampMs, Trace};
use parking_lot::{Mutex, RwLock};

use crate::aggregate::PaneTable;
use crate::delta::ConsistencyLevel;
use crate::op::{OpStats, Pipeline};

/// Callback invoked with each derived event of a query.
pub type Subscriber = Arc<dyn Fn(&Event) + Send + Sync>;

/// Bounded LRU of recently seen `(stream, event id)` pairs, used to drop
/// replayed duplicates on the pre-built-event ingest path (capture
/// adapters re-deliver WAL prefixes after recovery). Events whose id the
/// engine minted ([`Event::minted`]: [`StreamRuntime::push`], the core
/// crate's capture) can never recur, so they neither consult nor fill it.
///
/// O(1) per event with no per-event allocation once warm: a key is a
/// packed `u128` ([`DedupWindow::key`]), `seen` maps it to its recency
/// tick, and `order` queues `(tick, key)` oldest first. A re-sighting
/// pushes a fresh entry and leaves its old one stale (its tick no longer
/// matches `seen`); eviction skips stale entries, and `order` is
/// compacted in place once it holds more than twice the capacity.
struct DedupWindow {
    cap: usize,
    tick: u64,
    /// Stream name → interned id, assigned on the name's first sighting.
    streams: HashMap<Arc<str>, u32>,
    /// key → recency tick.
    seen: HashMap<DedupKey, u64>,
    /// `(tick, key)` in insertion order, oldest first; stale entries
    /// included.
    order: VecDeque<(u64, DedupKey)>,
    /// Keys evicted to stay within `cap` (D9: the bound is counted).
    evicted: u64,
}

/// `(stream id, event id, is_retraction)` packed into one integer — a
/// retraction delta legitimately reuses its insert's id, so the flag
/// keeps the pair distinct.
type DedupKey = u128;

impl DedupWindow {
    fn new(cap: usize) -> DedupWindow {
        DedupWindow {
            cap: cap.max(1),
            tick: 0,
            streams: HashMap::new(),
            seen: HashMap::new(),
            order: VecDeque::new(),
            evicted: 0,
        }
    }

    /// The key of `(stream, id, retraction)`, interning `stream` on its
    /// first sighting.
    fn key(&mut self, stream: &Arc<str>, id: u64, retraction: bool) -> DedupKey {
        let sid = match self.streams.get(stream.as_ref()) {
            Some(&sid) => sid,
            None => {
                let sid = self.streams.len() as u32;
                self.streams.insert(Arc::clone(stream), sid);
                sid
            }
        };
        (sid as u128) << 65 | (id as u128) << 1 | retraction as u128
    }

    /// Record the key; returns true if it was already present (a
    /// duplicate). Either way the key becomes most-recently-seen.
    fn check_and_insert(&mut self, key: DedupKey) -> bool {
        self.tick += 1;
        let dup = self.seen.insert(key, self.tick).is_some();
        // Evict before queueing the new entry, so that without
        // re-sightings `order` never holds more than `cap` entries.
        while self.seen.len() > self.cap {
            let (tick, oldest) = self.order.pop_front().expect("order holds every seen key");
            if self.seen.get(&oldest) == Some(&tick) {
                self.seen.remove(&oldest);
                self.evicted += 1;
            }
        }
        self.order.push_back((self.tick, key));
        if self.order.len() > 2 * self.cap {
            let seen = &self.seen;
            self.order.retain(|(tick, key)| seen.get(key) == Some(tick));
        }
        dup
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.seen.len()
    }
}

/// Mutable per-stream watermark state (its own lock; see module docs).
struct StreamState {
    max_ts: TimestampMs,
    events_in: u64,
}

struct StreamEntry {
    /// The stream's name, shared by every event the engine mints into it.
    name: Arc<str>,
    schema: Arc<Schema>,
    state: Mutex<StreamState>,
}

/// One query's operators and fan-out.
struct QueryInner {
    /// The query's registration number ([`QueryEntry::reg`]).
    reg: u64,
    /// The whole pipeline — or, for a member of a pane table, the
    /// operators after its aggregate (possibly none).
    pipeline: Pipeline,
    subscribers: Vec<Subscriber>,
    events_out: u64,
    /// A table member's deltas for the event being routed, and its first
    /// error.
    derived: Vec<Event>,
    err: Option<Error>,
}

impl QueryInner {
    fn new(reg: u64, pipeline: Pipeline) -> QueryInner {
        QueryInner {
            reg,
            pipeline,
            subscribers: Vec::new(),
            events_out: 0,
            derived: Vec::new(),
            err: None,
        }
    }

    /// Pass `rows` — what this member's aggregate emitted — through the
    /// query's remaining operators into `derived`, then `wm` if given.
    fn pass(&mut self, rows: &mut Vec<Event>, wm: Option<TimestampMs>) {
        if self.err.is_some() {
            rows.clear();
        } else if let Err(e) = self.pipeline.feed_rows_into(rows, wm, &mut self.derived) {
            self.err = Some(e);
        }
    }

    /// Hand `rows` to the subscribers, stamped with the trace of the
    /// event whose arrival produced them, if one did (stateful operators
    /// mint fresh events, losing the input's trace).
    fn deliver(&mut self, rows: &mut [Event], cause: Option<Trace>, pane_total: &mut u64) {
        self.events_out += rows.len() as u64;
        *pane_total += rows.len() as u64;
        for ev in rows {
            if let Some(trace) = cause {
                ev.trace = trace;
            }
            for s in &self.subscribers {
                s(ev);
            }
        }
    }

    /// Settle a table member's step on one event: deliver its rows and
    /// append them to `slot`, or keep its error there if it is the first.
    fn finish_member(&mut self, cause: Option<Trace>, slot: &mut Result<Vec<Event>>, pane_total: &mut u64) {
        match self.err.take() {
            Some(e) => {
                self.derived.clear();
                if slot.is_ok() {
                    *slot = Err(e);
                }
            }
            None if self.derived.is_empty() => {}
            None => {
                let mut rows = std::mem::take(&mut self.derived);
                self.deliver(&mut rows, cause, pane_total);
                if let Ok(all) = slot {
                    all.append(&mut rows);
                }
                rows.clear();
                self.derived = rows;
            }
        }
    }
}

/// What routing hands events to (D15): one query's pipeline, or a pane
/// table and the queries whose windows read it (DESIGN.md D5).
enum UnitState {
    Query(QueryInner),
    Table(Shared),
}

/// A pane table and the queries whose windows read it.
struct Shared {
    table: PaneTable,
    /// `queries[j]` holds what follows member `j`'s aggregate.
    queries: Vec<QueryInner>,
    /// The earliest watermark the table or any query's remaining
    /// operators has something due at, refreshed after every step.
    due: i64,
}

impl Shared {
    fn new(table: PaneTable, query: QueryInner) -> Shared {
        let mut shared = Shared {
            table,
            queries: vec![query],
            due: i64::MIN,
        };
        shared.refresh_due();
        shared
    }

    fn refresh_due(&mut self) {
        let after = self.queries.iter().map(|q| q.pipeline.watermark_due().0).min();
        self.due = self.table.watermark_due().min(after.unwrap_or(i64::MAX));
    }

    /// Route one event and the watermark it carries: one fold, and — only
    /// if that emitted, failed or left something due at `wm` — each
    /// member's settling. Only members with something due take the
    /// watermark; one that failed on the event skips it, as a pipeline
    /// whose push failed does.
    fn route(&mut self, event: &Event, wm: TimestampMs, slot: &mut Result<Vec<Event>>, pane_total: &mut u64) {
        if !self.table.on_event(event) && wm.0 < self.due {
            return;
        }
        for (q, m) in self.queries.iter_mut().zip(&mut self.table.members) {
            q.err = m.failed.take();
            q.pass(&mut m.rows, None);
        }
        let queries = &self.queries;
        self.table.on_watermark(wm, |j, due| wm.0 >= due && queries[j].err.is_none());
        self.finish(wm, Some(event.trace), slot, pane_total);
    }

    /// Hand `wm` to every member with something due, as a flush does.
    fn flush(&mut self, wm: TimestampMs, slot: &mut Result<Vec<Event>>, flushed: &mut u64) {
        self.table.on_watermark(wm, |_, due| wm.0 >= due);
        self.finish(wm, None, slot, flushed);
    }

    /// Pass each member's watermark step through its query's remaining
    /// operators and settle the query (see [`QueryInner::finish_member`]).
    fn finish(&mut self, wm: TimestampMs, cause: Option<Trace>, slot: &mut Result<Vec<Event>>, total: &mut u64) {
        for (q, m) in self.queries.iter_mut().zip(&mut self.table.members) {
            if q.err.is_none() {
                q.err = m.failed.take();
            }
            q.pass(&mut m.rows, Some(wm));
            q.finish_member(cause, slot, total);
        }
        self.refresh_due();
    }
}

impl UnitState {
    fn queries(&self) -> &[QueryInner] {
        match self {
            UnitState::Query(q) => std::slice::from_ref(q),
            UnitState::Table(shared) => &shared.queries,
        }
    }

    /// Index of the query registered as `reg` in [`queries`](Self::queries).
    fn position(&self, reg: u64) -> usize {
        self.queries().iter().position(|q| q.reg == reg).expect("query present")
    }

    fn query_mut(&mut self, reg: u64) -> &mut QueryInner {
        let k = self.position(reg);
        match self {
            UnitState::Query(q) => q,
            UnitState::Table(shared) => &mut shared.queries[k],
        }
    }

    /// The delta counters of query `k`: its member's and its operators'.
    fn stats_at(&self, k: usize) -> OpStats {
        let mut stats = self.queries()[k].pipeline.op_stats();
        if let UnitState::Table(shared) = self {
            stats.absorb(&shared.table.member_stats(k));
        }
        stats
    }

    fn op_stats(&self) -> OpStats {
        let mut total = OpStats::default();
        for k in 0..self.queries().len() {
            total.absorb(&self.stats_at(k));
        }
        total
    }

    fn state_size(&self) -> usize {
        let tables = match self {
            UnitState::Table(shared) => shared.table.state_size(),
            UnitState::Query(_) => 0,
        };
        tables + self.queries().iter().map(|q| q.pipeline.state_size()).sum::<usize>()
    }
}

/// A routing unit, behind its own lock.
struct Unit {
    state: Mutex<UnitState>,
}

struct QueryEntry {
    source: String,
    consistency: ConsistencyLevel,
    /// Registration sequence number: units take each event in the order
    /// their first query registered, independent of map iteration order.
    reg: u64,
    /// The unit that runs this query.
    unit: Arc<Unit>,
}

/// Registered queries and the units that route them.
#[derive(Default)]
struct Queries {
    by_name: HashMap<String, Arc<QueryEntry>>,
    /// Per source stream, its units in registration order.
    units: HashMap<String, Vec<Arc<Unit>>>,
}

/// Settle query `q`'s step on one event: on success deliver the rows
/// `all[mark..]` (`all` is `slot`'s rows, or `spare` once another query
/// has failed on the event), on failure drop them and keep the first
/// error in `slot`.
fn settle(
    q: &mut QueryInner,
    cause: Option<Trace>,
    result: Result<()>,
    slot: &mut Result<Vec<Event>>,
    spare: &mut Vec<Event>,
    mark: usize,
    pane_total: &mut u64,
) {
    let all = match slot {
        Ok(all) => all,
        Err(_) => spare,
    };
    match result {
        Ok(()) => q.deliver(&mut all[mark..], cause, pane_total),
        Err(e) => {
            all.truncate(mark);
            if slot.is_ok() {
                *slot = Err(e);
            }
        }
    }
}

/// Owns streams and continuous queries.
pub struct StreamRuntime {
    streams: RwLock<HashMap<String, Arc<StreamEntry>>>,
    queries: RwLock<Queries>,
    /// Watermark lag: how far behind max event time the watermark trails
    /// (allowed out-of-orderness), milliseconds.
    lateness_ms: i64,
    ids: IdGenerator,
    /// Derived events materialized (pane/window emissions), when bound.
    panes_obs: Option<Arc<Counter>>,
    /// Replay dedup window (None until [`StreamRuntime::enable_dedup`]).
    dedup: Mutex<Option<DedupWindow>>,
    /// Duplicates dropped by the dedup window (D9).
    dup_dropped: AtomicU64,
    /// Delta counters of dropped queries, so totals stay monotonic.
    retired_stats: Mutex<OpStats>,
    /// Monotonic registration counter; see [`QueryEntry::reg`].
    next_reg: AtomicU64,
    /// Batch-VM scratch for the single-event entry points, which have no
    /// caller-owned one (see [`StreamRuntime::feed_one`]).
    scratch: Mutex<evdb_expr::BatchScratch>,
}

/// Fewest events of one stream in a batch for which
/// [`StreamRuntime::feed`] routes query-major. Below it the per-batch
/// savings (one pipeline lock and one head-filter pass per query) are
/// within noise, while the wait query-major order imposes on a batch's
/// first events is not: `evbench` read `cq_embedded`'s `result_p90_ms`
/// 20 % up with every batch routed query-major, and level — at the same
/// throughput — with event-major routing below this size
/// (EXPERIMENTS.md, ISSUE 15).
const QUERY_MAJOR_MIN: usize = 8;

/// How a batch enters [`StreamRuntime::feed`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Feed {
    /// [`StreamRuntime::push_events`]: dedup window (for events the
    /// engine did not mint), live watermark.
    Live,
    /// [`StreamRuntime::push_events_replay`]: no dedup, each event's own
    /// (historical) watermark.
    Replay,
}

impl StreamRuntime {
    /// Create a runtime with the given allowed out-of-orderness.
    pub fn new(lateness_ms: i64) -> StreamRuntime {
        StreamRuntime {
            streams: RwLock::new(HashMap::new()),
            queries: RwLock::new(Queries::default()),
            lateness_ms,
            ids: IdGenerator::default(),
            panes_obs: None,
            dedup: Mutex::new(None),
            dup_dropped: AtomicU64::new(0),
            retired_stats: Mutex::new(OpStats::default()),
            next_reg: AtomicU64::new(0),
            scratch: Mutex::new(evdb_expr::BatchScratch::new()),
        }
    }

    /// Register the derived-event counter (`evdb_cq_panes_total`) with
    /// `registry`. The window-memory gauge is pull-based — hosts bridge
    /// [`StreamRuntime::window_memory`] via `Registry::gauge_fn`.
    pub fn bind_obs(&mut self, registry: &Registry) {
        if registry.is_enabled() {
            self.panes_obs = Some(registry.counter("evdb_cq_panes_total"));
        }
    }

    /// Buffered operator state across all registered queries, in retained
    /// items (pane groups, join rows, pattern runs) — a window-memory
    /// proxy for observability.
    pub fn window_memory(&self) -> usize {
        self.all_units()
            .iter()
            .map(|u| u.state.lock().state_size())
            .sum()
    }

    /// Pane tables the runtime routes: one per (stream, pane width,
    /// group-by) that queries' windowed aggregates share (DESIGN.md D5).
    pub fn pane_tables(&self) -> usize {
        self.all_units()
            .iter()
            .filter(|u| matches!(*u.state.lock(), UnitState::Table(_)))
            .count()
    }

    /// Every routing unit, cloned out of the map lock.
    fn all_units(&self) -> Vec<Arc<Unit>> {
        self.queries.read().units.values().flatten().map(Arc::clone).collect()
    }

    /// Declare a named stream.
    pub fn create_stream(&self, name: &str, schema: Arc<Schema>) -> Result<()> {
        let mut streams = self.streams.write();
        if streams.contains_key(name) {
            return Err(Error::AlreadyExists(format!("stream '{name}'")));
        }
        streams.insert(
            name.to_string(),
            Arc::new(StreamEntry {
                name: Arc::from(name),
                schema,
                state: Mutex::new(StreamState {
                    max_ts: TimestampMs(i64::MIN),
                    events_in: 0,
                }),
            }),
        );
        Ok(())
    }

    /// Schema of a stream.
    pub fn stream_schema(&self, name: &str) -> Result<Arc<Schema>> {
        self.streams
            .read()
            .get(name)
            .map(|s| Arc::clone(&s.schema))
            .ok_or_else(|| Error::NotFound(format!("stream '{name}'")))
    }

    /// A stream's interned name and its schema: what an event the host
    /// mints into the stream carries as `source` and `schema`, shared
    /// rather than copied.
    pub fn stream_source(&self, name: &str) -> Result<(Arc<str>, Arc<Schema>)> {
        let entry = self.stream_entry(name)?;
        Ok((Arc::clone(&entry.name), Arc::clone(&entry.schema)))
    }

    /// Register a continuous query (an operator pipeline) over a stream
    /// at the default [`ConsistencyLevel::Watermark`].
    pub fn register_query(&self, name: &str, source: &str, pipeline: Pipeline) -> Result<()> {
        self.register_query_with(name, source, pipeline, ConsistencyLevel::default())
    }

    /// Register a continuous query with an explicit consistency level
    /// (DESIGN.md D12). The pipeline must already be compiled for that
    /// level (see `cql::compile`); the runtime records it so hosts can
    /// report which queries may emit retractions.
    pub fn register_query_with(
        &self,
        name: &str,
        source: &str,
        mut pipeline: Pipeline,
        consistency: ConsistencyLevel,
    ) -> Result<()> {
        if self.streams.read().get(source).is_none() {
            return Err(Error::NotFound(format!("stream '{source}'")));
        }
        let mut queries = self.queries.write();
        if queries.by_name.contains_key(name) {
            return Err(Error::AlreadyExists(format!("query '{name}'")));
        }
        let reg = self.next_reg.fetch_add(1, Ordering::Relaxed);
        let units = queries.units.entry(source.to_string()).or_default();
        let unit = match pipeline.take_shared_head() {
            Some(table) => Self::join_table(units, table, QueryInner::new(reg, pipeline)),
            None => {
                let unit = Arc::new(Unit {
                    state: Mutex::new(UnitState::Query(QueryInner::new(reg, pipeline))),
                });
                units.push(Arc::clone(&unit));
                unit
            }
        };
        queries.by_name.insert(
            name.to_string(),
            Arc::new(QueryEntry {
                source: source.to_string(),
                consistency,
                reg,
                unit,
            }),
        );
        Ok(())
    }

    /// Make `query`, whose aggregate runs on `table`, a member of the
    /// stream's first pane table it can join ([`PaneTable::join`]), or of
    /// a new one. A table busy routing on another thread is passed over
    /// rather than waited for: a subscriber may be registering from
    /// inside it.
    fn join_table(units: &mut Vec<Arc<Unit>>, mut table: PaneTable, query: QueryInner) -> Arc<Unit> {
        for unit in units.iter() {
            let Some(mut state) = unit.state.try_lock() else { continue };
            if let UnitState::Table(shared) = &mut *state {
                if shared.table.join(&mut table) {
                    shared.queries.push(query);
                    shared.refresh_due();
                    return Arc::clone(unit);
                }
            }
        }
        let unit = Arc::new(Unit {
            state: Mutex::new(UnitState::Table(Shared::new(table, query))),
        });
        units.push(Arc::clone(&unit));
        unit
    }

    /// Consistency level a query was registered with.
    pub fn query_consistency(&self, name: &str) -> Result<ConsistencyLevel> {
        self.queries
            .read()
            .by_name
            .get(name)
            .map(|q| q.consistency)
            .ok_or_else(|| Error::NotFound(format!("query '{name}'")))
    }

    /// Remove a continuous query. Its delta counters are folded into the
    /// retired totals so runtime-wide stats stay monotonic.
    pub fn drop_query(&self, name: &str) -> Result<()> {
        let entry = {
            let mut queries = self.queries.write();
            let entry = queries
                .by_name
                .remove(name)
                .ok_or_else(|| Error::NotFound(format!("query '{name}'")))?;
            if !queries.by_name.values().any(|q| Arc::ptr_eq(&q.unit, &entry.unit)) {
                let units = queries.units.get_mut(&entry.source).expect("source has units");
                units.retain(|u| !Arc::ptr_eq(u, &entry.unit));
                if units.is_empty() {
                    queries.units.remove(&entry.source);
                }
            }
            entry
        };
        let mut state = entry.unit.state.lock();
        let k = state.position(entry.reg);
        self.retired_stats.lock().absorb(&state.stats_at(k));
        if let UnitState::Table(shared) = &mut *state {
            shared.table.remove(k);
            shared.queries.remove(k);
            shared.refresh_due();
        }
        Ok(())
    }

    /// Enable replay dedup on the pre-built-event ingest path
    /// ([`StreamRuntime::push_events`]): duplicates of the most recent
    /// `capacity` `(stream, event id)` pairs are dropped and counted.
    /// Only events whose id the engine did not mint ([`Event::minted`]
    /// false: journal-mined, caller-built) are checked and remembered.
    pub fn enable_dedup(&self, capacity: usize) {
        *self.dedup.lock() = Some(DedupWindow::new(capacity));
    }

    /// Duplicates dropped by the dedup window.
    pub fn dup_dropped(&self) -> u64 {
        self.dup_dropped.load(Ordering::Relaxed)
    }

    /// Keys the dedup window evicted to stay within its capacity (0
    /// while dedup is off). An evicted id that is re-delivered later is
    /// no longer recognised as a duplicate.
    pub fn dedup_evicted(&self) -> u64 {
        self.dedup.lock().as_ref().map_or(0, |w| w.evicted)
    }

    /// Summed delta/lateness counters across live and dropped queries
    /// (late drops/admissions, pane reopens, retractions — D9).
    pub fn cq_delta_stats(&self) -> OpStats {
        let mut total = *self.retired_stats.lock();
        for unit in self.all_units() {
            total.absorb(&unit.state.lock().op_stats());
        }
        total
    }

    /// One query's delta/lateness counters: what the same query would
    /// report registered alone.
    pub fn query_stats(&self, query: &str) -> Result<OpStats> {
        let q = self.query_entry(query)?;
        let state = q.unit.state.lock();
        Ok(state.stats_at(state.position(q.reg)))
    }

    fn query_entry(&self, query: &str) -> Result<Arc<QueryEntry>> {
        self.queries
            .read()
            .by_name
            .get(query)
            .map(Arc::clone)
            .ok_or_else(|| Error::NotFound(format!("query '{query}'")))
    }

    /// Attach a subscriber to a query's output.
    pub fn subscribe(&self, query: &str, subscriber: Subscriber) -> Result<()> {
        let q = self.query_entry(query)?;
        q.unit.state.lock().query_mut(q.reg).subscribers.push(subscriber);
        Ok(())
    }

    /// Push a payload into a stream; returns every derived event (they
    /// are also delivered to subscribers).
    pub fn push(
        &self,
        stream: &str,
        timestamp: TimestampMs,
        payload: Record,
    ) -> Result<Vec<Event>> {
        let entry = self.stream_entry(stream)?;
        entry.schema.validate(&payload)?;
        let mut event = Event::new(
            EventId(self.ids.next_id()),
            Arc::clone(&entry.name),
            timestamp,
            payload,
            Arc::clone(&entry.schema),
        );
        event.minted = true;
        self.feed_one(&event, Feed::Live)
    }

    /// Push a pre-built event (capture adapters use this): the `N = 1`
    /// case of [`push_events`](Self::push_events).
    pub fn push_event(&self, event: &Event) -> Result<Vec<Event>> {
        self.feed_one(event, Feed::Live)
    }

    /// Push a batch of pre-built events: `out[i]` holds the derived
    /// events of `events[i]`, and how the input is cut into batches does
    /// not change them (D15; `tests/prop_chunking.rs`). With dedup
    /// enabled, a replayed `(stream, event id)` pair is dropped before it
    /// can double-count into windows (recovery replays WAL prefixes);
    /// events the engine minted ([`Event::minted`]) skip the window.
    pub fn push_events(
        &self,
        events: &[Event],
        scratch: &mut evdb_expr::BatchScratch,
        out: &mut Vec<Result<Vec<Event>>>,
    ) {
        self.feed(events, Feed::Live, scratch, out);
    }

    /// Push a batch of historical events, bypassing the replay-dedup
    /// window.
    ///
    /// History replays (REPLAY over the segment store) legitimately
    /// re-deliver `(stream, event id)` pairs the runtime has seen before:
    /// an event that was retracted and later re-inserted in the *live*
    /// stream carries a fresh id each time (every ingest writes a new WAL
    /// record), but a replay from history re-presents the original ids
    /// verbatim. Routing replays through [`push_events`](Self::push_events)
    /// therefore wrongly dropped a retracted-then-reinserted event as a
    /// "duplicate". The dedup window is only sound for WAL-prefix
    /// re-delivery after crash recovery, so replay feeds use this path
    /// and never consult (or populate) the window.
    ///
    /// The watermark routed with each replayed event is the *historical*
    /// one — derived from the replayed event's own timestamp — not the
    /// live stream's high-water mark. A query registered after the fact
    /// then sees windows open and close exactly as a live subscriber
    /// did, while already-advanced pipelines treat the stale watermark
    /// as a no-op (watermark handling is monotone).
    pub fn push_events_replay(
        &self,
        events: &[Event],
        scratch: &mut evdb_expr::BatchScratch,
        out: &mut Vec<Result<Vec<Event>>>,
    ) {
        self.feed(events, Feed::Replay, scratch, out);
    }

    /// Phase A of [`feed`](Self::feed) for one run of same-stream
    /// events: per event in order, the dedup check (live events the
    /// engine did not mint) and the stream-state update. Pushes each
    /// event's watermark to `wms` — `None` for a duplicate the window
    /// dropped — and its empty result to `out`. The stream is looked up
    /// and its state locked once per run, the window's lock taken at the
    /// run's first event that needs it.
    fn admit_run(
        &self,
        run: &[Event],
        feed: Feed,
        wms: &mut Vec<Option<TimestampMs>>,
        out: &mut Vec<Result<Vec<Event>>>,
    ) {
        let entry = match self.stream_entry(run[0].source.as_ref()) {
            Ok(entry) => entry,
            Err(_) => {
                for event in run {
                    wms.push(None);
                    out.push(Err(Error::NotFound(format!("stream '{}'", event.source))));
                }
                return;
            }
        };
        let mut dedup = None;
        let mut state = entry.state.lock();
        for event in run {
            if feed == Feed::Live && !event.minted {
                let window = dedup.get_or_insert_with(|| self.dedup.lock());
                if let Some(window) = window.as_mut() {
                    let key = window.key(&event.source, event.id.0, event.retraction);
                    if window.check_and_insert(key) {
                        self.dup_dropped.fetch_add(1, Ordering::Relaxed);
                        wms.push(None);
                        out.push(Ok(Vec::new()));
                        continue;
                    }
                }
            }
            state.max_ts = state.max_ts.max(event.timestamp);
            state.events_in += 1;
            let high = match feed {
                Feed::Replay => event.timestamp,
                Feed::Live => state.max_ts,
            };
            wms.push(Some(high.minus(self.lateness_ms)));
            out.push(Ok(Vec::new()));
        }
    }

    /// One event through [`feed`](Self::feed). The batch scratch is
    /// taken out of its slot for the call rather than held locked, so a
    /// subscriber that pushes into another stream re-enters safely (it
    /// finds an empty scratch and leaves its own behind).
    fn feed_one(&self, event: &Event, feed: Feed) -> Result<Vec<Event>> {
        let mut scratch = std::mem::take(&mut *self.scratch.lock());
        let mut out = Vec::with_capacity(1);
        self.feed(std::slice::from_ref(event), feed, &mut scratch, &mut out);
        *self.scratch.lock() = scratch;
        out.pop().expect("one result per event")
    }

    /// The one routing routine (D15): every push — single or batched,
    /// live or replayed — runs through here.
    ///
    /// Dedup checks and watermark bookkeeping run per event in arrival
    /// order (phase A), one stream lookup per run of same-stream events.
    /// Routing is then *unit-major* (from [`QUERY_MAJOR_MIN`] events
    /// up), units in the order their first query registered. A unit is a
    /// query's pipeline — its lock taken once per batch, and, when its
    /// head operator is a pure filter ([`Pipeline::head_predicate`]), the
    /// whole batch pre-verified through the batch VM so non-matching
    /// events skip the push (the pipeline still observes their
    /// watermarks) — or a pane table shared by windowed aggregates
    /// ([`PaneTable`]): one fold per event, then member steps only when
    /// the fold emitted or the watermark reaches the unit's cached due.
    /// A pipeline takes only the watermarks something in it is due at.
    /// An event that fails at a query costs only that query: every other
    /// query still sees it, and `out[i]` holds the first error in routing
    /// order.
    fn feed(
        &self,
        events: &[Event],
        feed: Feed,
        scratch: &mut evdb_expr::BatchScratch,
        out: &mut Vec<Result<Vec<Event>>>,
    ) {
        // Phase A: dedup + stream state, strictly in arrival order (the
        // watermark each event routes with depends on its predecessors).
        // `None` marks an event that is not routed.
        out.clear();
        let mut wms = Vec::with_capacity(events.len());
        for run in events.chunk_by(|a, b| a.source == b.source) {
            self.admit_run(run, feed, &mut wms, out);
        }

        // Phase B: route, grouped by source then unit. Units are
        // disjoint state, so unit-major order yields the same per-query
        // delta sequence as event-major would.
        let mut sources: Vec<&str> = Vec::new();
        for (ev, wm) in events.iter().zip(&wms) {
            if wm.is_some() && !sources.contains(&ev.source.as_ref()) {
                sources.push(ev.source.as_ref());
            }
        }
        let mut pane_total = 0u64;
        let mut verdicts: Vec<Result<bool>> = Vec::new();
        let mut spare = Vec::new();
        for src in sources {
            let units = self.units_for(src);
            if units.is_empty() {
                continue;
            }
            // (event index, its watermark) of the stream's routed events.
            let idxs: Vec<(usize, TimestampMs)> = (0..events.len())
                .filter(|i| events[*i].source.as_ref() == src)
                .filter_map(|i| Some((i, wms[i]?)))
                .collect();
            // A short batch is routed one event at a time.
            let run = if idxs.len() < QUERY_MAJOR_MIN { 1 } else { idxs.len() };
            for idxs in idxs.chunks(run) {
                for unit in &units {
                    match &mut *unit.state.lock() {
                        UnitState::Query(q) => {
                            let has_pred = q.pipeline.head_predicate().is_some_and(|pred| {
                                let payload = |(i, _): &(usize, TimestampMs)| &events[*i].payload;
                                pred.matches_batch(idxs, payload, scratch, &mut verdicts);
                                true
                            });
                            for (k, &(i, wm)) in idxs.iter().enumerate() {
                                let event = &events[i];
                                let passes = if has_pred {
                                    std::mem::replace(&mut verdicts[k], Ok(false))
                                } else {
                                    Ok(true)
                                };
                                // The rows go straight into `out[i]` — or,
                                // once another query failed on the event,
                                // a spare buffer: a push allocates nothing.
                                let all = match &mut out[i] {
                                    Ok(all) => all,
                                    Err(_) => {
                                        spare.clear();
                                        &mut spare
                                    }
                                };
                                let mark = all.len();
                                let step = passes.and_then(|passes| {
                                    match (passes, has_pred) {
                                        // Head filter drops it: skip the
                                        // push, keep the watermark.
                                        (false, _) => {}
                                        (true, true) => q.pipeline.push_verified_into(event, all)?,
                                        (true, false) => q.pipeline.push_into(event, all)?,
                                    }
                                    q.pipeline.advance_watermark_into(wm, all)
                                });
                                let cause = Some(event.trace);
                                settle(q, cause, step, &mut out[i], &mut spare, mark, &mut pane_total);
                            }
                        }
                        UnitState::Table(shared) => {
                            for &(i, wm) in idxs {
                                shared.route(&events[i], wm, &mut out[i], &mut pane_total);
                            }
                        }
                    }
                }
            }
        }
        if let Some(c) = &self.panes_obs {
            c.add(pane_total);
        }
    }

    fn stream_entry(&self, name: &str) -> Result<Arc<StreamEntry>> {
        self.streams
            .read()
            .get(name)
            .map(Arc::clone)
            .ok_or_else(|| Error::NotFound(format!("stream '{name}'")))
    }

    /// The units routing `source`, in registration order, cloned out so
    /// the map lock is not held while they run.
    fn units_for(&self, source: &str) -> Vec<Arc<Unit>> {
        self.queries.read().units.get(source).cloned().unwrap_or_default()
    }

    /// Force every query on `stream` to observe a watermark (e.g. at end
    /// of input, to flush trailing windows). Every query sees it; the
    /// first error, if any, is returned.
    pub fn flush(&self, stream: &str, wm: TimestampMs) -> Result<Vec<Event>> {
        let mut out = Ok(Vec::new());
        let mut spare = Vec::new();
        let mut flushed = 0u64;
        for unit in self.units_for(stream) {
            match &mut *unit.state.lock() {
                UnitState::Query(q) => {
                    let all = match &mut out {
                        Ok(all) => all,
                        Err(_) => {
                            spare.clear();
                            &mut spare
                        }
                    };
                    let mark = all.len();
                    let step = q.pipeline.advance_watermark_into(wm, all);
                    settle(q, None, step, &mut out, &mut spare, mark, &mut flushed);
                }
                UnitState::Table(shared) => shared.flush(wm, &mut out, &mut flushed),
            }
        }
        out
    }

    /// (events in, events out) counters for observability.
    pub fn stats(&self) -> (u64, u64) {
        let events_in = self
            .streams
            .read()
            .values()
            .map(|s| s.state.lock().events_in)
            .sum();
        let events_out = self
            .all_units()
            .iter()
            .map(|u| u.state.lock().queries().iter().map(|q| q.events_out).sum::<u64>())
            .sum();
        (events_in, events_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggMode;
    use crate::cql::compile_query;
    use evdb_types::{DataType, Value};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn schema() -> Arc<Schema> {
        Schema::of(&[("sym", DataType::Str), ("px", DataType::Float)])
    }

    #[test]
    fn end_to_end_windowed_query() {
        let rt = StreamRuntime::new(0);
        rt.create_stream("ticks", schema()).unwrap();
        let p = compile_query(
            "SELECT sym, avg(px) AS apx FROM ticks [RANGE 1 s] GROUP BY sym",
            &schema(),
            AggMode::Incremental,
        )
        .unwrap();
        rt.register_query("vwap", "ticks", p).unwrap();

        let hits = Arc::new(AtomicUsize::new(0));
        let h2 = Arc::clone(&hits);
        rt.subscribe(
            "vwap",
            Arc::new(move |_| {
                h2.fetch_add(1, Ordering::SeqCst);
            }),
        )
        .unwrap();

        rt.push(
            "ticks",
            TimestampMs(100),
            Record::from_iter([Value::from("A"), Value::Float(10.0)]),
        )
        .unwrap();
        rt.push(
            "ticks",
            TimestampMs(500),
            Record::from_iter([Value::from("A"), Value::Float(20.0)]),
        )
        .unwrap();
        // Crossing into the next window closes the first.
        let out = rt
            .push(
                "ticks",
                TimestampMs(1_200),
                Record::from_iter([Value::from("A"), Value::Float(1.0)]),
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload.get(1), Some(&Value::Float(15.0)));
        assert_eq!(hits.load(Ordering::SeqCst), 1);

        // Flush the trailing window.
        let out = rt.flush("ticks", TimestampMs(10_000)).unwrap();
        assert_eq!(out.len(), 1);
        let (ins, outs) = rt.stats();
        assert_eq!(ins, 3);
        assert_eq!(outs, 2);
    }

    #[test]
    fn lateness_delays_watermark() {
        let rt = StreamRuntime::new(500);
        rt.create_stream("ticks", schema()).unwrap();
        let p = compile_query(
            "SELECT count() AS n FROM ticks [RANGE 1 s]",
            &schema(),
            AggMode::Incremental,
        )
        .unwrap();
        rt.register_query("q", "ticks", p).unwrap();
        rt.push(
            "ticks",
            TimestampMs(100),
            Record::from_iter([Value::from("A"), Value::Float(1.0)]),
        )
        .unwrap();
        // ts 1200: wm = 700 → window [0,1000) stays open.
        let out = rt
            .push(
                "ticks",
                TimestampMs(1_200),
                Record::from_iter([Value::from("A"), Value::Float(1.0)]),
            )
            .unwrap();
        assert!(out.is_empty());
        // A late event at 900 still lands in the open window.
        rt.push(
            "ticks",
            TimestampMs(900),
            Record::from_iter([Value::from("A"), Value::Float(1.0)]),
        )
        .unwrap();
        // ts 1600: wm = 1100 → closes with all three counted? No: events
        // at 100 and 900 are in [0,1000), the 1200 one is not.
        let out = rt
            .push(
                "ticks",
                TimestampMs(1_600),
                Record::from_iter([Value::from("A"), Value::Float(1.0)]),
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload.get(0), Some(&Value::Int(2)));
    }

    #[test]
    fn validation_errors() {
        let rt = StreamRuntime::new(0);
        rt.create_stream("s", schema()).unwrap();
        assert!(rt.create_stream("s", schema()).is_err());
        assert!(rt.push("ghost", TimestampMs(0), Record::empty()).is_err());
        assert!(rt.push("s", TimestampMs(0), Record::empty()).is_err()); // schema
        assert!(rt.drop_query("nope").is_err());
        assert!(rt.subscribe("nope", Arc::new(|_| {})).is_err());
        let p = compile_query("SELECT sym FROM s", &schema(), AggMode::Incremental).unwrap();
        assert!(rt.register_query("q", "ghost", p).is_err());
    }

    #[test]
    fn replayed_wal_prefix_is_deduplicated() {
        // Recovery regression: capture adapters re-deliver a WAL prefix
        // after a crash; without dedup the second delivery double-counts.
        let rt = StreamRuntime::new(0);
        rt.create_stream("ticks", schema()).unwrap();
        rt.enable_dedup(1024);
        let p = compile_query(
            "SELECT count() AS n FROM ticks [RANGE 1 s]",
            &schema(),
            AggMode::Incremental,
        )
        .unwrap();
        rt.register_query("q", "ticks", p).unwrap();

        // Stable ids, as change_to_event mints from journal LSNs.
        let mk = |id: u64, ts: i64| {
            Event::new(
                EventId(id),
                "ticks",
                TimestampMs(ts),
                Record::from_iter([Value::from("A"), Value::Float(1.0)]),
                schema(),
            )
        };
        let prefix: Vec<Event> = (0..5).map(|i| mk(i, 100 + i as i64)).collect();
        for e in &prefix {
            rt.push_event(e).unwrap();
        }
        // Crash + recovery: the same prefix is delivered again.
        for e in &prefix {
            assert!(rt.push_event(e).unwrap().is_empty());
        }
        assert_eq!(rt.dup_dropped(), 5);
        let out = rt.flush("ticks", TimestampMs(10_000)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload.get(0), Some(&Value::Int(5))); // not 10
    }

    #[test]
    fn history_replay_of_retracted_then_reinserted_event_is_not_dropped() {
        // Regression: a replay from the historical store re-presents
        // original event ids. An event that was retracted and then
        // re-observed used to be swallowed by the dedup window when the
        // replay feed went through push_events — its (stream, id, false)
        // key was already "seen". The replay path must bypass dedup.
        let rt = StreamRuntime::new(0);
        rt.create_stream("ticks", schema()).unwrap();
        rt.enable_dedup(1024);
        let p = compile_query(
            "SELECT count() AS n FROM ticks [RANGE 10 s]",
            &schema(),
            AggMode::Incremental,
        )
        .unwrap();
        rt.register_query("q", "ticks", p).unwrap();

        let insert = Event::new(
            EventId(7),
            "ticks",
            TimestampMs(100),
            Record::from_iter([Value::from("A"), Value::Float(1.0)]),
            schema(),
        );
        // Live history: insert, then retract.
        rt.push_event(&insert).unwrap();
        rt.push_event(&insert.to_retraction()).unwrap();

        // REPLAY re-feeds the same id. On the dedup'd path it would be
        // dropped as a duplicate; the replay path must deliver it.
        assert!(rt.push_event(&insert).unwrap().is_empty()); // demonstrates the trap
        assert_eq!(rt.dup_dropped(), 1);
        let mut out = Vec::new();
        rt.push_events_replay(
            std::slice::from_ref(&insert),
            &mut evdb_expr::BatchScratch::new(),
            &mut out,
        );
        assert!(out.pop().unwrap().is_ok());
        assert_eq!(rt.dup_dropped(), 1); // replay neither consulted nor fed the window

        let out = rt.flush("ticks", TimestampMs(100_000)).unwrap();
        assert_eq!(out.len(), 1);
        // events_in excludes the dedup-dropped push but includes the
        // replayed delivery: insert + retraction + replayed insert.
        let (ins, _) = rt.stats();
        assert_eq!(ins, 3);
    }

    #[test]
    fn dedup_window_is_bounded_lru() {
        let mut w = DedupWindow::new(3);
        let s: Arc<str> = Arc::from("s");
        for i in 0..3u64 {
            let k = w.key(&s, i, false);
            assert!(!w.check_and_insert(k));
        }
        assert_eq!(w.len(), 3);
        // Touch id 0 so it is most-recent, then overflow: id 1 evicts.
        let k = w.key(&s, 0, false);
        assert!(w.check_and_insert(k));
        let k = w.key(&s, 3, false);
        assert!(!w.check_and_insert(k));
        assert_eq!(w.len(), 3);
        let k = w.key(&s, 1, false);
        assert!(!w.check_and_insert(k)); // evicted → new again
        let k = w.key(&s, 0, false);
        assert!(w.check_and_insert(k)); // still present
        // A retraction of a seen id is NOT a duplicate.
        let k = w.key(&s, 0, true);
        assert!(!w.check_and_insert(k));
    }

    /// The window against a naive LRU (a `VecDeque` of keys, most recent
    /// last) on seeded random sequences with heavy re-sighting: same
    /// verdicts, same eviction count, and `order` stays within
    /// `2·cap + 1` entries throughout.
    #[test]
    fn dedup_window_matches_a_naive_lru() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let streams: [Arc<str>; 2] = [Arc::from("a"), Arc::from("b")];
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let cap = rng.gen_range(1..=64usize);
            // Ids drawn from a range a little wider than the capacity,
            // so most keys recur while some fall out of the window.
            let ids = rng.gen_range(1..=2 * cap as u64 + 2);
            let mut w = DedupWindow::new(cap);
            let mut naive: VecDeque<(usize, u64, bool)> = VecDeque::new();
            let mut naive_evicted = 0u64;
            for step in 0..2_000 {
                let key = (rng.gen_range(0..2usize), rng.gen_range(0..ids), rng.gen_bool(0.1));
                let expected = match naive.iter().position(|k| *k == key) {
                    Some(at) => {
                        naive.remove(at);
                        true
                    }
                    None => false,
                };
                naive.push_back(key);
                if naive.len() > cap {
                    naive.pop_front();
                    naive_evicted += 1;
                }
                let packed = w.key(&streams[key.0], key.1, key.2);
                assert_eq!(w.check_and_insert(packed), expected, "seed {seed} step {step}");
                assert!(w.order.len() <= 2 * cap + 1, "seed {seed} step {step}");
                assert_eq!(w.len(), naive.len());
            }
            assert_eq!(w.evicted, naive_evicted, "seed {seed}");
        }
    }

    #[test]
    fn delta_stats_aggregate_across_queries_and_survive_drop() {
        let rt = StreamRuntime::new(0);
        rt.create_stream("ticks", schema()).unwrap();
        let p = compile_query(
            "SELECT count() AS n FROM ticks [RANGE 1 s]",
            &schema(),
            AggMode::Incremental,
        )
        .unwrap();
        rt.register_query("q", "ticks", p).unwrap();
        assert_eq!(rt.query_consistency("q").unwrap(), ConsistencyLevel::Watermark);
        let tick = || Record::from_iter([Value::from("A"), Value::Float(1.0)]);
        rt.push("ticks", TimestampMs(100), tick()).unwrap();
        rt.push("ticks", TimestampMs(2_500), tick()).unwrap();
        // Late event behind the closed window boundary → dropped+counted.
        rt.push("ticks", TimestampMs(100), tick()).unwrap();
        assert_eq!(rt.cq_delta_stats().late_events, 1);
        // Counters survive dropping the query (monotonic totals).
        rt.drop_query("q").unwrap();
        assert_eq!(rt.cq_delta_stats().late_events, 1);
        assert!(rt.query_consistency("q").is_err());
    }

    /// Nine same-pane queries at both consistency levels, one with a
    /// HAVING, routed as one pane table over in-order ticks in batches
    /// of every size: each member steps only at watermarks at or past
    /// its due, and every step emits a row or moves its floor past a
    /// pane. Each query answers as it does registered alone.
    #[test]
    fn a_table_steps_a_member_only_when_something_closes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const QUERIES: [&str; 9] = [
            "SELECT sym, count() AS n FROM ticks [RANGE 100 ms] GROUP BY sym",
            "SELECT sym, sum(px) AS s FROM ticks [RANGE 500 ms SLIDE 100 ms] GROUP BY sym",
            "SELECT sym, max(px) AS hi FROM ticks [RANGE 1 s SLIDE 100 ms] GROUP BY sym",
            "SELECT sym, count() AS n FROM ticks [RANGE 300 ms SLIDE 100 ms] GROUP BY sym HAVING count() > 5",
            "SELECT sym, avg(px) AS m FROM ticks [RANGE 200 ms SLIDE 100 ms] GROUP BY sym",
            "SELECT sym, min(px) AS lo FROM ticks [RANGE 2 s SLIDE 100 ms] GROUP BY sym",
            "SELECT sym, count() AS n FROM ticks [RANGE 500 ms SLIDE 100 ms] GROUP BY sym EMIT SPECULATIVE",
            "SELECT sym, max(px) AS hi FROM ticks [RANGE 100 ms] GROUP BY sym EMIT SPECULATIVE",
            "SELECT sym, sum(px) AS s FROM ticks [RANGE 1 s SLIDE 100 ms] GROUP BY sym EMIT SPECULATIVE",
        ];
        type Rows = Arc<Mutex<Vec<String>>>;
        let runtime = |queries: &[usize]| -> (StreamRuntime, Vec<Rows>) {
            let rt = StreamRuntime::new(30);
            rt.create_stream("ticks", schema()).unwrap();
            let rows = queries
                .iter()
                .map(|&k| {
                    let q = crate::cql::parse_query(QUERIES[k]).unwrap();
                    let p = crate::cql::compile(&q, &schema(), AggMode::Incremental).unwrap();
                    rt.register_query_with(&format!("q{k}"), "ticks", p, q.consistency).unwrap();
                    let rows: Rows = Arc::default();
                    let sink = Arc::clone(&rows);
                    let subscriber: Subscriber = Arc::new(move |e: &Event| {
                        let row = format!("{} {} {} {}", e.id.0, e.timestamp.0, e.retraction, e.payload);
                        sink.lock().push(row);
                    });
                    rt.subscribe(&format!("q{k}"), subscriber).unwrap();
                    rows
                })
                .collect();
            (rt, rows)
        };
        let drive = |rt: &StreamRuntime, events: &[Event], rng: &mut StdRng| {
            let (mut scratch, mut out) = (evdb_expr::BatchScratch::new(), Vec::new());
            let mut rest = events;
            while !rest.is_empty() {
                let (batch, tail) = rest.split_at(rng.gen_range(1..=rest.len().min(20)));
                rt.push_events(batch, &mut scratch, &mut out);
                assert!(out.iter().all(Result::is_ok));
                rest = tail;
            }
            rt.flush("ticks", TimestampMs(1_000_000)).unwrap();
        };
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut now = 0;
            let events: Vec<Event> = (0..1_500)
                .map(|i| {
                    now += rng.gen_range(1..8);
                    let sym = ["A", "B", "C"][rng.gen_range(0..3usize)];
                    let payload = Record::from_iter([Value::from(sym), Value::Float(rng.gen_range(0..50) as f64)]);
                    Event::new(EventId(i), "ticks", TimestampMs(now), payload, schema())
                })
                .collect();
            let all: Vec<usize> = (0..QUERIES.len()).collect();
            let (rt, rows) = runtime(&all);
            assert_eq!(rt.pane_tables(), 1);
            drive(&rt, &events, &mut StdRng::seed_from_u64(seed + 100));
            let units = rt.all_units();
            let state = units[0].state.lock();
            let UnitState::Table(shared) = &*state else { panic!("one pane table") };
            for (k, m) in shared.table.members.iter().enumerate() {
                assert!(m.steps.len() > 2, "seed {seed}: q{k} stepped {} times", m.steps.len());
                for &(wm, due, closed) in &m.steps {
                    assert!(wm >= due, "seed {seed}: q{k} stepped at {wm}, due at {due}");
                    assert!(closed, "seed {seed}: q{k} stepped at {wm} and closed nothing");
                }
            }
            for (k, rows) in rows.iter().enumerate() {
                let (alone, alone_rows) = runtime(&[k]);
                drive(&alone, &events, &mut StdRng::seed_from_u64(seed + 100));
                assert!(!rows.lock().is_empty(), "seed {seed}: q{k} emitted nothing");
                assert_eq!(*rows.lock(), *alone_rows[0].lock(), "seed {seed}: q{k} differs from itself alone");
            }
        }
    }

    #[test]
    fn concurrent_pushes_to_distinct_streams() {
        let rt = Arc::new(StreamRuntime::new(0));
        for s in ["a", "b", "c", "d"] {
            rt.create_stream(s, schema()).unwrap();
        }
        let handles: Vec<_> = ["a", "b", "c", "d"]
            .into_iter()
            .map(|s| {
                let rt = Arc::clone(&rt);
                std::thread::spawn(move || {
                    for i in 0..500i64 {
                        rt.push(
                            s,
                            TimestampMs(i),
                            Record::from_iter([Value::from("A"), Value::Float(1.0)]),
                        )
                        .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let (ins, _) = rt.stats();
        assert_eq!(ins, 2_000);
    }
}
