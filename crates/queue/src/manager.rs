//! The queue manager: staging areas stored entirely in database tables.
//!
//! Storage layout (all ordinary tables, so the journal makes every
//! transition recoverable and auditable):
//!
//! ```text
//! __q_meta            queue catalog: name → payload schema + config
//! __q_seq             message-id high-water mark (sequence caching)
//! __q_groups          consumer-group registry
//! __q_<q>_m           messages: id, enqueue ts, priority, delay, source, payload
//! __q_<q>_s           per-(message, group) delivery state
//! __q_<q>_d           dead letters
//! ```
//!
//! Per-group **ready heaps** (priority desc, id asc) accelerate dequeue;
//! they are a volatile cache over the state table and are rebuilt from it
//! on [`QueueManager::attach`] — a popped entry is always re-verified
//! against the state row before delivery, so a stale heap can cause extra
//! work but never a wrong delivery.

use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

use evdb_storage::codec::{self, Reader};
use evdb_storage::{Database, Table, Transaction};
use evdb_types::{
    DataType, Error, Record, Result, Schema, Stage, TimestampMs, Trace, Value,
};
use parking_lot::Mutex;

use crate::config::QueueConfig;
use crate::message::{Delivery, Message};

const META: &str = "__q_meta";
const SEQ: &str = "__q_seq";
const GROUPS: &str = "__q_groups";
const SEQ_BLOCK: u64 = 1024;

const STATE_READY: i64 = 0;
const STATE_INFLIGHT: i64 = 1;
const STATE_ACKED: i64 = 2;
const STATE_DEAD: i64 = 3;

/// Heap key: higher priority first, then FIFO by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReadyKey {
    priority: i64,
    id: u64,
}

impl Ord for ReadyKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: order by priority, then by *smaller*
        // id first.
        self.priority
            .cmp(&other.priority)
            .then(other.id.cmp(&self.id))
    }
}
impl PartialOrd for ReadyKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Default)]
struct GroupRuntime {
    ready: BinaryHeap<ReadyKey>,
    /// Delayed messages not yet visible: (visible-from, key).
    delayed: Vec<(TimestampMs, ReadyKey)>,
}

struct QueueInfo {
    schema: Arc<Schema>,
    config: QueueConfig,
    groups: Vec<String>,
    runtimes: HashMap<String, GroupRuntime>,
    /// Delivery sids whose in-flight state rows were removed by
    /// [`QueueManager::purge_expired`] (retention outran the consumer).
    /// Acks/nacks for these are idempotent no-ops instead of errors —
    /// the consumer cannot observe the retention race. Volatile, like
    /// the ready heaps: after a restart such an ack surfaces as
    /// "unknown delivery" again, which is the pre-existing at-least-once
    /// contract.
    purged_inflight: HashSet<String>,
}

/// Manages every queue stored in one database.
pub struct QueueManager {
    db: Arc<Database>,
    queues: Mutex<HashMap<String, QueueInfo>>,
    ids: Mutex<IdBlock>,
    obs: QueueObs,
}

/// Counter handles into the database's metric registry. All no-ops when
/// the registry is disabled, so the hot paths stay uninstrumented unless
/// the embedder opted in.
struct QueueObs {
    enqueued: Arc<evdb_obs::Counter>,
    dequeued: Arc<evdb_obs::Counter>,
    acked: Arc<evdb_obs::Counter>,
    nacked: Arc<evdb_obs::Counter>,
    redeliveries: Arc<evdb_obs::Counter>,
    reclaimed: Arc<evdb_obs::Counter>,
    purged_inflight: Arc<evdb_obs::Counter>,
}

impl QueueObs {
    fn bind(registry: &evdb_obs::Registry) -> QueueObs {
        QueueObs {
            enqueued: registry.counter("evdb_queue_enqueued_total"),
            dequeued: registry.counter("evdb_queue_dequeued_total"),
            acked: registry.counter("evdb_queue_acked_total"),
            nacked: registry.counter("evdb_queue_nacked_total"),
            redeliveries: registry.counter("evdb_queue_redeliveries_total"),
            reclaimed: registry.counter("evdb_queue_reclaimed_total"),
            purged_inflight: registry.counter("evdb_queue_purged_inflight_total"),
        }
    }
}

struct IdBlock {
    next: u64,
    reserved_until: u64,
}

fn msg_table(q: &str) -> String {
    format!("__q_{q}_m")
}
fn state_table(q: &str) -> String {
    format!("__q_{q}_s")
}
fn dlq_table(q: &str) -> String {
    format!("__q_{q}_d")
}
fn sid(msg_id: u64, group: &str) -> String {
    format!("{msg_id:020}\u{1}{group}")
}

fn msg_schema() -> Arc<Schema> {
    Schema::of(&[
        ("id", DataType::Int),
        ("ts", DataType::Timestamp),
        ("priority", DataType::Int),
        ("delay_until", DataType::Timestamp),
        ("src", DataType::Str),
        ("payload", DataType::Bytes),
    ])
}

fn state_schema() -> Arc<Schema> {
    Schema::of(&[
        ("sid", DataType::Str),
        ("msg_id", DataType::Int),
        ("grp", DataType::Str),
        ("state", DataType::Int),
        ("visible_at", DataType::Timestamp),
        ("attempts", DataType::Int),
        ("priority", DataType::Int),
        ("delay_until", DataType::Timestamp),
    ])
}

fn dlq_schema() -> Arc<Schema> {
    Schema::of(&[
        ("did", DataType::Str),
        ("msg_id", DataType::Int),
        ("grp", DataType::Str),
        ("ts", DataType::Timestamp),
        ("reason", DataType::Str),
        ("payload", DataType::Bytes),
    ])
}

/// Column `idx` of a row read back from queue table `table`, decoded by
/// `get`. Every read of a queue table goes through here, because a row
/// is what the disk held: a missing or wrong-typed value is
/// `Error::Corruption` naming the table, the row (by its key, column 0)
/// and the column, never a panic.
fn column<'r, T>(
    table: &Table,
    row: &'r Record,
    idx: usize,
    get: impl FnOnce(&'r Value) -> Option<T>,
) -> Result<T> {
    row.get(idx).and_then(get).ok_or_else(|| {
        // Debug forms: a queue state key embeds a control character.
        let shown = |i: usize| row.get(i).map_or_else(|| "nothing".into(), |v| format!("{v:?}"));
        let (key, found) = (shown(0), shown(idx));
        let col = table.schema().fields().get(idx).map_or("?", |f| f.name.as_str());
        Error::Corruption(format!(
            "queue table '{}' row {key}: column {idx} '{col}' holds {found}, not the type the queue expects",
            table.name()
        ))
    })
}

impl QueueManager {
    /// Attach to (or initialize) the queue subsystem in a database,
    /// rebuilding queue metadata, id allocation and ready heaps from the
    /// recovered tables.
    pub fn attach(db: Arc<Database>) -> Result<QueueManager> {
        // System tables (idempotent creation).
        if db.table(META).is_err() {
            db.create_table(
                META,
                Schema::of(&[
                    ("queue", DataType::Str),
                    ("schema", DataType::Bytes),
                    ("vis_ms", DataType::Int),
                    ("max_att", DataType::Int),
                    ("def_pri", DataType::Int),
                    ("retention", DataType::Int),
                ]),
                "queue",
            )?;
        }
        if db.table(SEQ).is_err() {
            db.create_table(
                SEQ,
                Schema::of(&[("k", DataType::Str), ("hwm", DataType::Int)]),
                "k",
            )?;
            db.insert(SEQ, Record::from_iter([Value::from("msg"), Value::Int(0)]))?;
        }
        if db.table(GROUPS).is_err() {
            db.create_table(
                GROUPS,
                Schema::of(&[
                    ("gid", DataType::Str),
                    ("queue", DataType::Str),
                    ("grp", DataType::Str),
                ]),
                "gid",
            )?;
        }

        let hwm = db
            .table(SEQ)?
            .get(&Value::from("msg"))
            .and_then(|r| r.get(1).and_then(Value::as_int))
            .unwrap_or(0) as u64;

        let obs = QueueObs::bind(db.registry());
        let mgr = QueueManager {
            db,
            queues: Mutex::new(HashMap::new()),
            ids: Mutex::new(IdBlock {
                next: hwm + 1,
                reserved_until: hwm,
            }),
            obs,
        };

        // Load queue catalog and rebuild runtimes.
        let meta_table = mgr.db.table(META)?;
        let groups_table = mgr.db.table(GROUPS)?;
        let groups_rows = groups_table.scan();
        let mut queues = mgr.queues.lock();
        for m in meta_table.scan() {
            let int = |idx| column(&meta_table, &m, idx, Value::as_int);
            let name = column(&meta_table, &m, 0, Value::as_str)?.to_string();
            let schema_bytes = column(&meta_table, &m, 1, |v| match v {
                Value::Bytes(b) => Some(b),
                _ => None,
            })?;
            let schema = codec::decode_schema(&mut Reader::new(schema_bytes))?;
            // Range-check before the narrowing cast: a stored negative
            // max_attempts would otherwise wrap to ~4 billion and turn
            // dead-lettering off.
            let max_att = int(3)?;
            if !(1..=i64::from(u32::MAX)).contains(&max_att) {
                return Err(Error::Corruption(format!(
                    "queue '{name}' meta: max_attempts {max_att} out of range"
                )));
            }
            let config = QueueConfig {
                visibility_timeout_ms: int(2)?,
                max_attempts: max_att as u32,
                default_priority: int(4)?,
                retention_ms: int(5)?,
            };
            config.validate().map_err(|e| {
                Error::Corruption(format!("queue '{name}' meta rejected: {e}"))
            })?;
            let mut groups = Vec::new();
            for g in &groups_rows {
                if column(&groups_table, g, 1, Value::as_str)? == name {
                    groups.push(column(&groups_table, g, 2, Value::as_str)?.to_string());
                }
            }
            let mut info = QueueInfo {
                schema,
                config,
                groups: groups.clone(),
                runtimes: HashMap::new(),
                purged_inflight: HashSet::new(),
            };
            // Rebuild heaps from the state table.
            let states = mgr.db.table(&state_table(&name))?;
            let now = mgr.db.now();
            for g in &groups {
                info.runtimes.insert(g.clone(), GroupRuntime::default());
            }
            for s in states.scan() {
                let int = |idx| column(&states, &s, idx, Value::as_int);
                let ts = |idx| column(&states, &s, idx, Value::as_timestamp);
                let grp = column(&states, &s, 2, Value::as_str)?;
                let state = int(3)?;
                let visible_at = ts(4)?;
                let key = ReadyKey {
                    priority: int(6)?,
                    id: int(1)? as u64,
                };
                let delay_until = ts(7)?;
                if let Some(rt) = info.runtimes.get_mut(grp) {
                    match state {
                        STATE_READY if delay_until > now => rt.delayed.push((delay_until, key)),
                        STATE_READY => rt.ready.push(key),
                        // In-flight from before the crash: redeliverable
                        // once its visibility window lapses.
                        STATE_INFLIGHT => {
                            if visible_at <= now {
                                rt.ready.push(key);
                            } else {
                                rt.delayed.push((visible_at, key));
                            }
                        }
                        _ => {}
                    }
                }
            }
            queues.insert(name, info);
        }
        drop(queues);
        Ok(mgr)
    }

    /// The underlying database.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Create a queue with the given payload schema.
    pub fn create_queue(
        &self,
        name: &str,
        schema: Arc<Schema>,
        config: QueueConfig,
    ) -> Result<()> {
        if !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
            || name.is_empty()
        {
            return Err(Error::Invalid(format!("bad queue name '{name}'")));
        }
        config.validate()?;
        let mut queues = self.queues.lock();
        if queues.contains_key(name) {
            return Err(Error::AlreadyExists(format!("queue '{name}'")));
        }
        self.db.create_table(&msg_table(name), msg_schema(), "id")?;
        self.db
            .create_table(&state_table(name), state_schema(), "sid")?;
        self.db.create_index(&state_table(name), "grp")?;
        self.db.create_index(&state_table(name), "msg_id")?;
        self.db.create_table(&dlq_table(name), dlq_schema(), "did")?;

        let mut schema_bytes = Vec::new();
        codec::encode_schema(&mut schema_bytes, &schema);
        self.db.insert(
            META,
            Record::from_iter([
                Value::from(name),
                Value::bytes(schema_bytes),
                Value::Int(config.visibility_timeout_ms),
                Value::Int(config.max_attempts as i64),
                Value::Int(config.default_priority),
                Value::Int(config.retention_ms),
            ]),
        )?;
        queues.insert(
            name.to_string(),
            QueueInfo {
                schema,
                config,
                groups: Vec::new(),
                runtimes: HashMap::new(),
                purged_inflight: HashSet::new(),
            },
        );
        Ok(())
    }

    /// Drop a queue and all its storage.
    pub fn drop_queue(&self, name: &str) -> Result<()> {
        let mut queues = self.queues.lock();
        if queues.remove(name).is_none() {
            return Err(Error::NotFound(format!("queue '{name}'")));
        }
        self.db.drop_table(&msg_table(name))?;
        self.db.drop_table(&state_table(name))?;
        self.db.drop_table(&dlq_table(name))?;
        self.db.delete(META, &Value::from(name))?;
        // Remove group registrations.
        let groups = self.db.table(GROUPS)?;
        let mut stale: Vec<Value> = Vec::new();
        for g in groups.scan() {
            if column(&groups, &g, 1, Value::as_str)? == name {
                stale.push(column(&groups, &g, 0, Some)?.clone());
            }
        }
        for k in stale {
            self.db.delete(GROUPS, &k)?;
        }
        Ok(())
    }

    /// Names of all queues.
    pub fn queue_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.queues.lock().keys().cloned().collect();
        v.sort();
        v
    }

    /// The payload schema of a queue.
    pub fn queue_schema(&self, queue: &str) -> Result<Arc<Schema>> {
        let queues = self.queues.lock();
        let info = queues
            .get(queue)
            .ok_or_else(|| Error::NotFound(format!("queue '{queue}'")))?;
        Ok(Arc::clone(&info.schema))
    }

    /// Register a consumer group. The group sees messages enqueued from
    /// this point on (no backfill).
    pub fn subscribe(&self, queue: &str, group: &str) -> Result<()> {
        let mut queues = self.queues.lock();
        let info = queues
            .get_mut(queue)
            .ok_or_else(|| Error::NotFound(format!("queue '{queue}'")))?;
        if info.groups.iter().any(|g| g == group) {
            return Err(Error::AlreadyExists(format!(
                "group '{group}' on queue '{queue}'"
            )));
        }
        self.db.insert(
            GROUPS,
            Record::from_iter([
                Value::from(format!("{queue}\u{1}{group}")),
                Value::from(queue),
                Value::from(group),
            ]),
        )?;
        info.groups.push(group.to_string());
        info.runtimes
            .insert(group.to_string(), GroupRuntime::default());
        Ok(())
    }

    /// Remove a consumer group; its pending delivery state is discarded.
    pub fn unsubscribe(&self, queue: &str, group: &str) -> Result<()> {
        let mut queues = self.queues.lock();
        let info = queues
            .get_mut(queue)
            .ok_or_else(|| Error::NotFound(format!("queue '{queue}'")))?;
        let pos = info
            .groups
            .iter()
            .position(|g| g == group)
            .ok_or_else(|| Error::NotFound(format!("group '{group}'")))?;
        info.groups.remove(pos);
        info.runtimes.remove(group);
        self.db
            .delete(GROUPS, &Value::from(format!("{queue}\u{1}{group}")))?;
        // Delete this group's state rows and reclaim fully-processed msgs.
        let st = self.db.table(&state_table(queue))?;
        let mut mine: Vec<(Value, i64)> = Vec::new();
        for s in st.scan() {
            if column(&st, &s, 2, Value::as_str)? == group {
                mine.push((column(&st, &s, 0, Some)?.clone(), column(&st, &s, 1, Value::as_int)?));
            }
        }
        let mut tx = self.db.begin();
        for (k, _) in &mine {
            tx.delete(&state_table(queue), k)?;
        }
        tx.commit()?;
        for (_, msg_id) in mine {
            self.reclaim_if_done(queue, msg_id as u64)?;
        }
        Ok(())
    }

    /// Consumer groups of a queue.
    pub fn groups(&self, queue: &str) -> Result<Vec<String>> {
        let queues = self.queues.lock();
        let info = queues
            .get(queue)
            .ok_or_else(|| Error::NotFound(format!("queue '{queue}'")))?;
        Ok(info.groups.clone())
    }

    /// Mint a message id. When the cached block is exhausted, the
    /// durable high-water mark is bumped — through `tx` when the caller
    /// already holds an open transaction (the write gate is not
    /// reentrant), else via an autocommit update. If a caller's
    /// transaction rolls back, the in-memory reservation stands, so ids
    /// are skipped rather than reused.
    fn next_id(&self, tx: Option<&mut Transaction<'_>>) -> Result<u64> {
        let mut ids = self.ids.lock();
        if ids.next > ids.reserved_until {
            // Reserve a new block by bumping the durable high-water mark,
            // so recovered managers never reuse ids (gaps are fine).
            let new_hwm = ids.next + SEQ_BLOCK - 1;
            let row = Record::from_iter([Value::from("msg"), Value::Int(new_hwm as i64)]);
            match tx {
                Some(tx) => {
                    tx.update(SEQ, &Value::from("msg"), row)?;
                }
                None => {
                    self.db.update(SEQ, &Value::from("msg"), row)?;
                }
            }
            ids.reserved_until = new_hwm;
        }
        let id = ids.next;
        ids.next += 1;
        Ok(id)
    }

    // ---- enqueue ---------------------------------------------------------

    /// Client-path enqueue ("extended INSERT"): validates the payload
    /// against the queue schema, assigns an id and commits its own
    /// transaction. Returns the message id.
    pub fn enqueue(&self, queue: &str, payload: Record, source: &str) -> Result<u64> {
        self.enqueue_with(queue, payload, source, None, 0)
    }

    /// Client-path enqueue with explicit priority and delivery delay.
    pub fn enqueue_with(
        &self,
        queue: &str,
        payload: Record,
        source: &str,
        priority: Option<i64>,
        delay_ms: i64,
    ) -> Result<u64> {
        let (schema, config, groups) = {
            let queues = self.queues.lock();
            let info = queues
                .get(queue)
                .ok_or_else(|| Error::NotFound(format!("queue '{queue}'")))?;
            (
                Arc::clone(&info.schema),
                info.config,
                info.groups.clone(),
            )
        };
        let payload = schema.normalize(payload)?; // the "validation" of the client path
        let priority = priority.unwrap_or(config.default_priority);
        let id = self.next_id(None)?;
        // Crash site: the id block reservation is durable but the message
        // is not — recovery must surface a gap, never a phantom message.
        self.db.fault_point("queue.enqueue.pre")?;
        let mut tx = self.db.begin();
        self.write_message(&mut tx, queue, id, &payload, source, priority, delay_ms, &groups)?;
        tx.commit()?;
        self.index_ready(queue, &groups, id, priority, delay_ms);
        self.obs.enqueued.inc();
        Ok(id)
    }

    /// Engine-path enqueue for internally created messages (§2.2.b.i.3):
    /// joins the caller's open transaction and skips payload validation —
    /// internal producers (triggers, rules) are trusted to emit
    /// schema-conformant records. The ready heaps are only updated after
    /// the caller commits, via the returned [`PendingEnqueue`].
    pub fn enqueue_internal(
        &self,
        tx: &mut Transaction<'_>,
        queue: &str,
        payload: Record,
        source: &str,
    ) -> Result<PendingEnqueue> {
        let (config, groups) = {
            let queues = self.queues.lock();
            let info = queues
                .get(queue)
                .ok_or_else(|| Error::NotFound(format!("queue '{queue}'")))?;
            (info.config, info.groups.clone())
        };
        let priority = config.default_priority;
        let id = self.next_id(Some(tx))?;
        self.write_message(tx, queue, id, &payload, source, priority, 0, &groups)?;
        Ok(PendingEnqueue {
            queue: queue.to_string(),
            groups,
            id,
            priority,
        })
    }

    /// Publish a committed internal enqueue to the ready heaps.
    pub fn complete_internal(&self, pending: PendingEnqueue) {
        self.index_ready(&pending.queue, &pending.groups, pending.id, pending.priority, 0);
        self.obs.enqueued.inc();
    }

    #[allow(clippy::too_many_arguments)]
    fn write_message(
        &self,
        tx: &mut Transaction<'_>,
        queue: &str,
        id: u64,
        payload: &Record,
        source: &str,
        priority: i64,
        delay_ms: i64,
        groups: &[String],
    ) -> Result<()> {
        let now = self.db.now();
        let delay_until = now.plus(delay_ms.max(0));
        let mut bytes = Vec::new();
        codec::encode_record(&mut bytes, payload);
        tx.insert(
            &msg_table(queue),
            Record::from_iter([
                Value::Int(id as i64),
                Value::Timestamp(now),
                Value::Int(priority),
                Value::Timestamp(delay_until),
                Value::from(source),
                Value::bytes(bytes),
            ]),
        )?;
        for g in groups {
            tx.insert(
                &state_table(queue),
                Record::from_iter([
                    Value::from(sid(id, g)),
                    Value::Int(id as i64),
                    Value::from(g.as_str()),
                    Value::Int(STATE_READY),
                    Value::Timestamp(TimestampMs::ZERO),
                    Value::Int(0),
                    Value::Int(priority),
                    Value::Timestamp(delay_until),
                ]),
            )?;
        }
        Ok(())
    }

    fn index_ready(&self, queue: &str, groups: &[String], id: u64, priority: i64, delay_ms: i64) {
        let now = self.db.now();
        let mut queues = self.queues.lock();
        if let Some(info) = queues.get_mut(queue) {
            for g in groups {
                if let Some(rt) = info.runtimes.get_mut(g) {
                    let key = ReadyKey { priority, id };
                    if delay_ms > 0 {
                        rt.delayed.push((now.plus(delay_ms), key));
                    } else {
                        rt.ready.push(key);
                    }
                }
            }
        }
    }

    // ---- dequeue / ack / nack --------------------------------------------

    /// Dequeue up to `max` messages for a consumer group. Each delivered
    /// message becomes invisible to the group for the queue's visibility
    /// timeout; unacked deliveries are redelivered afterwards (check
    /// [`QueueManager::reap_timeouts`]).
    pub fn dequeue(&self, queue: &str, group: &str, max: usize) -> Result<Vec<Delivery>> {
        let now = self.db.now();
        let (config,) = {
            let queues = self.queues.lock();
            let info = queues
                .get(queue)
                .ok_or_else(|| Error::NotFound(format!("queue '{queue}'")))?;
            if !info.groups.iter().any(|g| g == group) {
                return Err(Error::Queue(format!(
                    "group '{group}' is not subscribed to '{queue}'"
                )));
            }
            (info.config,)
        };

        let st = self.db.table(&state_table(queue))?;
        let mt = self.db.table(&msg_table(queue))?;
        let mut out = Vec::new();
        let mut to_reclaim: Vec<u64> = Vec::new();
        let mut tx = self.db.begin();

        loop {
            if out.len() >= max {
                break;
            }
            let key = {
                let mut queues = self.queues.lock();
                // The queue/group may have been dropped by another thread
                // between our entry check and this iteration.
                let Some(info) = queues.get_mut(queue) else { break };
                let Some(rt) = info.runtimes.get_mut(group) else { break };
                // Promote due delayed entries first.
                let mut i = 0;
                while i < rt.delayed.len() {
                    if rt.delayed[i].0 <= now {
                        let (_, k) = rt.delayed.swap_remove(i);
                        rt.ready.push(k);
                    } else {
                        i += 1;
                    }
                }
                rt.ready.pop()
            };
            let Some(key) = key else { break };

            // Verify against the durable state row; the heap may be stale.
            let sid_v = Value::from(sid(key.id, group));
            let Some(state_row) = st.get(&sid_v) else {
                continue; // rolled-back enqueue or already reclaimed
            };
            let int = |idx| column(&st, &state_row, idx, Value::as_int);
            let ts = |idx| column(&st, &state_row, idx, Value::as_timestamp);
            let (state, visible_at, attempts, delay_until) = (int(3)?, ts(4)?, int(5)?, ts(7)?);
            let deliverable = match state {
                STATE_READY => delay_until <= now,
                STATE_INFLIGHT => visible_at <= now,
                _ => false,
            };
            if !deliverable {
                if state == STATE_READY && delay_until > now {
                    // Put it back on the delayed list.
                    let mut queues = self.queues.lock();
                    if let Some(rt) = queues
                        .get_mut(queue)
                        .and_then(|i| i.runtimes.get_mut(group))
                    {
                        rt.delayed.push((delay_until, key));
                    }
                }
                continue;
            }
            let Some(msg_row) = mt.get(&Value::Int(key.id as i64)) else {
                continue;
            };

            // Attempts exhausted by visibility timeouts (never nacked):
            // dead-letter instead of delivering forever.
            if attempts as u32 >= config.max_attempts {
                let payload_bytes = match msg_row.get(5) {
                    Some(Value::Bytes(b)) => b.clone(),
                    _ => return Err(Error::Corruption("message payload".into())),
                };
                tx.insert(
                    &dlq_table(queue),
                    Record::from_iter([
                        Value::from(format!("{:020}\u{1}{}", key.id, group)),
                        Value::Int(key.id as i64),
                        Value::from(group),
                        Value::Timestamp(now),
                        Value::from("visibility timeout attempts exhausted"),
                        Value::Bytes(payload_bytes),
                    ]),
                )?;
                let mut updated = state_row.clone();
                updated.set(3, Value::Int(STATE_DEAD));
                tx.update(&state_table(queue), &sid_v, updated)?;
                to_reclaim.push(key.id);
                continue;
            }

            let attempt = attempts as u32 + 1;
            let mut updated = state_row.clone();
            updated.set(3, Value::Int(STATE_INFLIGHT));
            updated.set(4, Value::Timestamp(now.plus(config.visibility_timeout_ms)));
            updated.set(5, Value::Int(attempt as i64));
            tx.update(&state_table(queue), &sid_v, updated)?;

            let payload_bytes = match msg_row.get(5) {
                Some(Value::Bytes(b)) => b.clone(),
                _ => return Err(Error::Corruption("message payload".into())),
            };
            let payload = codec::decode_record(&mut Reader::new(&payload_bytes))?;
            let enqueued_at = column(&mt, &msg_row, 1, Value::as_timestamp)?;
            let source = column(&mt, &msg_row, 4, Value::as_str)?.to_string();
            // Staging-area deliveries trace like pipeline events: the
            // enqueue is their capture, this dequeue their delivery.
            let mut trace = Trace::new(key.id);
            trace.stamp(Stage::Capture, enqueued_at);
            trace.stamp(Stage::Deliver, now);
            self.obs.dequeued.inc();
            if attempt > 1 {
                self.obs.redeliveries.inc();
            }
            out.push(Delivery {
                message: Message {
                    id: key.id,
                    queue: queue.to_string(),
                    payload,
                    enqueued_at,
                    priority: key.priority,
                    source,
                },
                group: group.to_string(),
                attempt,
                trace,
            });
        }
        // Crash site: deliveries are chosen but their INFLIGHT transitions
        // are not yet durable — after recovery they must still be READY.
        self.db.fault_point("queue.dequeue.commit")?;
        tx.commit()?;
        for id in to_reclaim {
            self.reclaim_if_done(queue, id)?;
        }
        Ok(out)
    }

    /// Acknowledge a delivery; when every group has terminally processed
    /// the message, its storage is reclaimed.
    pub fn ack(&self, delivery: &Delivery) -> Result<()> {
        let queue = &delivery.message.queue;
        let st = self.db.table(&state_table(queue))?;
        let sid_s = sid(delivery.message.id, &delivery.group);
        let sid_v = Value::from(sid_s.as_str());
        let Some(row) = st.get(&sid_v) else {
            // A retention purge removed this delivery while it was in
            // flight — a race the consumer cannot observe, and its work
            // is done either way, so the ack is an idempotent no-op
            // (counted by evdb_queue_purged_inflight_total at purge
            // time). Anything else missing is still a protocol error.
            if self.was_purged_inflight(queue, &sid_s) {
                return Ok(());
            }
            return Err(Error::Queue("ack of unknown delivery".into()));
        };
        if column(&st, &row, 3, Value::as_int)? != STATE_INFLIGHT {
            return Err(Error::Queue("ack of a non-inflight delivery".into()));
        }
        let mut updated = row.clone();
        updated.set(3, Value::Int(STATE_ACKED));
        // Crash site: before the ACKED transition is durable the consumer
        // has processed the message but recovery will redeliver it —
        // at-least-once, bounded by max_attempts.
        self.db.fault_point("queue.ack.pre")?;
        self.db.update(&state_table(queue), &sid_v, updated)?;
        // Crash site: ACKED is durable but reclaim has not run — recovery
        // must never redeliver, and a later ack/reclaim sweep cleans up.
        self.db.fault_point("queue.ack.durable")?;
        self.reclaim_if_done(queue, delivery.message.id)?;
        self.obs.acked.inc();
        Ok(())
    }

    /// Negatively acknowledge: either return the message to ready (for
    /// redelivery) or, once `max_attempts` is exhausted, move it to the
    /// dead-letter queue with `reason`.
    pub fn nack(&self, delivery: &Delivery, reason: &str) -> Result<()> {
        let queue = &delivery.message.queue;
        let config = {
            let queues = self.queues.lock();
            queues
                .get(queue)
                .ok_or_else(|| Error::NotFound(format!("queue '{queue}'")))?
                .config
        };
        let st = self.db.table(&state_table(queue))?;
        let sid_s = sid(delivery.message.id, &delivery.group);
        let sid_v = Value::from(sid_s.as_str());
        let Some(row) = st.get(&sid_v) else {
            // Same retention race as in `ack`: the purged message cannot
            // be redelivered or dead-lettered, so the nack is a no-op.
            if self.was_purged_inflight(queue, &sid_s) {
                return Ok(());
            }
            return Err(Error::Queue("nack of unknown delivery".into()));
        };
        let attempts = column(&st, &row, 5, Value::as_int)? as u32;
        // Crash site: an un-durable nack leaves the delivery INFLIGHT; the
        // visibility timeout redelivers it after recovery.
        self.db.fault_point("queue.nack.pre")?;

        if attempts >= config.max_attempts {
            // Dead-letter.
            let mut payload = Vec::new();
            codec::encode_record(&mut payload, &delivery.message.payload);
            let mut tx = self.db.begin();
            tx.insert(
                &dlq_table(queue),
                Record::from_iter([
                    Value::from(format!("{:020}\u{1}{}", delivery.message.id, delivery.group)),
                    Value::Int(delivery.message.id as i64),
                    Value::from(delivery.group.as_str()),
                    Value::Timestamp(self.db.now()),
                    Value::from(reason),
                    Value::bytes(payload),
                ]),
            )?;
            let mut updated = row.clone();
            updated.set(3, Value::Int(STATE_DEAD));
            tx.update(&state_table(queue), &sid_v, updated)?;
            tx.commit()?;
            self.reclaim_if_done(queue, delivery.message.id)?;
        } else {
            let mut updated = row.clone();
            updated.set(3, Value::Int(STATE_READY));
            updated.set(4, Value::Timestamp(TimestampMs::ZERO));
            self.db.update(&state_table(queue), &sid_v, updated)?;
            let mut queues = self.queues.lock();
            if let Some(rt) = queues
                .get_mut(queue)
                .and_then(|i| i.runtimes.get_mut(&delivery.group))
            {
                rt.ready.push(ReadyKey {
                    priority: delivery.message.priority,
                    id: delivery.message.id,
                });
            }
        }
        self.obs.nacked.inc();
        Ok(())
    }

    fn reclaim_if_done(&self, queue: &str, msg_id: u64) -> Result<()> {
        let st = self.db.table(&state_table(queue))?;
        let pred = evdb_expr::Expr::binary(
            evdb_expr::BinaryOp::Eq,
            evdb_expr::Expr::field("msg_id"),
            evdb_expr::Expr::lit(msg_id as i64),
        );
        let states = st.select(&pred)?;
        let mut all_done = true;
        for s in &states {
            all_done &= column(&st, s, 3, Value::as_int)? >= STATE_ACKED;
        }
        if all_done {
            // Crash site: every group is terminal but the rows are not yet
            // reclaimed — recovery must tolerate terminal leftovers.
            self.db.fault_point("queue.reclaim")?;
            let mut tx = self.db.begin();
            for s in &states {
                tx.delete(&state_table(queue), column(&st, s, 0, Some)?)?;
            }
            if self
                .db
                .table(&msg_table(queue))?
                .get(&Value::Int(msg_id as i64))
                .is_some()
            {
                tx.delete(&msg_table(queue), &Value::Int(msg_id as i64))?;
            }
            tx.commit()?;
        }
        Ok(())
    }

    /// Find in-flight deliveries whose visibility window has lapsed and
    /// make them dequeueable again. Returns how many were reaped. Run
    /// this periodically (the core engine does).
    pub fn reap_timeouts(&self, queue: &str) -> Result<usize> {
        let now = self.db.now();
        let st = self.db.table(&state_table(queue))?;
        // (group, ready key) of every in-flight delivery whose window lapsed.
        let mut expired: Vec<(String, ReadyKey)> = Vec::new();
        for s in st.scan() {
            let int = |idx| column(&st, &s, idx, Value::as_int);
            if int(3)? == STATE_INFLIGHT && column(&st, &s, 4, Value::as_timestamp)? <= now {
                let key = ReadyKey { priority: int(6)?, id: int(1)? as u64 };
                expired.push((column(&st, &s, 2, Value::as_str)?.to_string(), key));
            }
        }
        let n = expired.len();
        let mut queues = self.queues.lock();
        let info = queues
            .get_mut(queue)
            .ok_or_else(|| Error::NotFound(format!("queue '{queue}'")))?;
        for (grp, key) in expired {
            if let Some(rt) = info.runtimes.get_mut(&grp) {
                rt.ready.push(key);
            }
        }
        self.obs.reclaimed.add(n as u64);
        Ok(n)
    }

    // ---- observation -------------------------------------------------------

    /// Non-destructive read of up to `limit` messages in id order.
    pub fn browse(&self, queue: &str, limit: usize) -> Result<Vec<Message>> {
        let mt = self.db.table(&msg_table(queue))?;
        mt.scan()
            .into_iter()
            .take(limit)
            .map(|row| {
                let payload_bytes = match row.get(5) {
                    Some(Value::Bytes(b)) => b.clone(),
                    _ => return Err(Error::Corruption("message payload".into())),
                };
                let int = |idx| column(&mt, &row, idx, Value::as_int);
                Ok(Message {
                    id: int(0)? as u64,
                    queue: queue.to_string(),
                    payload: codec::decode_record(&mut Reader::new(&payload_bytes))?,
                    enqueued_at: column(&mt, &row, 1, Value::as_timestamp)?,
                    priority: int(2)?,
                    source: column(&mt, &row, 4, Value::as_str)?.to_string(),
                })
            })
            .collect()
    }

    /// Evaluate a predicate over the *payloads* of stored messages — the
    /// paper's "evaluation of internal data; e.g., messages in queues"
    /// (§2.2.c.iii). Non-destructive; returns matching messages in id
    /// order.
    pub fn select_messages(
        &self,
        queue: &str,
        predicate: &evdb_expr::Expr,
    ) -> Result<Vec<Message>> {
        let schema = self.queue_schema(queue)?;
        let bound = evdb_expr::CompiledExpr::compile(&predicate.bind_predicate(&schema)?);
        let mut out = Vec::new();
        for m in self.browse(queue, usize::MAX)? {
            if bound.matches(&m.payload)? {
                out.push(m);
            }
        }
        Ok(out)
    }

    /// Number of messages currently stored in the queue.
    pub fn depth(&self, queue: &str) -> Result<usize> {
        Ok(self.db.table(&msg_table(queue))?.len())
    }

    /// Per-state delivery counts across all consumer groups.
    pub fn stats(&self, queue: &str) -> Result<QueueStats> {
        let mut stats = QueueStats {
            depth: self.depth(queue)?,
            ..Default::default()
        };
        for s in self.db.table(&state_table(queue))?.scan() {
            match s.get(3).and_then(Value::as_int) {
                Some(STATE_READY) => stats.ready += 1,
                Some(STATE_INFLIGHT) => stats.inflight += 1,
                Some(STATE_ACKED) => stats.acked += 1,
                Some(STATE_DEAD) => stats.dead += 1,
                _ => {}
            }
        }
        stats.dead_letters = self.dead_letter_count(queue)?;
        Ok(stats)
    }

    /// Number of dead-lettered deliveries.
    pub fn dead_letter_count(&self, queue: &str) -> Result<usize> {
        Ok(self.db.table(&dlq_table(queue))?.len())
    }

    /// Move a dead-lettered delivery back onto the queue as a fresh
    /// message (operator tooling: replay after fixing the consumer).
    /// Returns the new message id.
    pub fn requeue_dead_letter(&self, queue: &str, msg_id: u64, group: &str) -> Result<u64> {
        let dt = self.db.table(&dlq_table(queue))?;
        let did = Value::from(format!("{msg_id:020}\u{1}{group}"));
        let row = dt
            .get(&did)
            .ok_or_else(|| Error::NotFound(format!("dead letter {msg_id} for '{group}'")))?;
        let payload_bytes = match row.get(5) {
            Some(Value::Bytes(b)) => b.clone(),
            _ => return Err(Error::Corruption("dead letter payload".into())),
        };
        let payload = codec::decode_record(&mut Reader::new(&payload_bytes))?;
        let new_id = self.enqueue(queue, payload, &format!("requeue:{group}"))?;
        self.db.delete(&dlq_table(queue), &did)?;
        Ok(new_id)
    }

    /// Delete messages older than the queue's retention window, whatever
    /// their delivery state. Returns how many were purged.
    pub fn purge_expired(&self, queue: &str) -> Result<usize> {
        let config = {
            let queues = self.queues.lock();
            queues
                .get(queue)
                .ok_or_else(|| Error::NotFound(format!("queue '{queue}'")))?
                .config
        };
        if config.retention_ms == i64::MAX {
            return Ok(0);
        }
        let cutoff = self.db.now().minus(config.retention_ms);
        let mt = self.db.table(&msg_table(queue))?;
        let st = self.db.table(&state_table(queue))?;
        let mut old: Vec<i64> = Vec::new();
        for m in mt.scan() {
            if column(&mt, &m, 1, Value::as_timestamp)? < cutoff {
                old.push(column(&mt, &m, 0, Value::as_int)?);
            }
        }
        let mut tx = self.db.begin();
        let mut purged_inflight: Vec<String> = Vec::new();
        for id in &old {
            tx.delete(&msg_table(queue), &Value::Int(*id))?;
            let pred = evdb_expr::Expr::binary(
                evdb_expr::BinaryOp::Eq,
                evdb_expr::Expr::field("msg_id"),
                evdb_expr::Expr::lit(*id),
            );
            for s in st.select(&pred)? {
                // Remember in-flight deliveries the purge is racing: a
                // consumer still holds them and will ack/nack later,
                // which must then be a no-op rather than an error.
                if column(&st, &s, 3, Value::as_int)? == STATE_INFLIGHT {
                    purged_inflight.push(column(&st, &s, 0, Value::as_str)?.to_string());
                }
                tx.delete(&state_table(queue), column(&st, &s, 0, Some)?)?;
            }
        }
        let n = old.len();
        tx.commit()?;
        if !purged_inflight.is_empty() {
            self.obs.purged_inflight.add(purged_inflight.len() as u64);
            let mut queues = self.queues.lock();
            if let Some(info) = queues.get_mut(queue) {
                info.purged_inflight.extend(purged_inflight);
            }
        }
        Ok(n)
    }

    fn was_purged_inflight(&self, queue: &str, sid: &str) -> bool {
        self.queues
            .lock()
            .get(queue)
            .is_some_and(|i| i.purged_inflight.contains(sid))
    }
}

/// Point-in-time delivery-state counts for one queue (across groups).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Messages stored (not yet fully processed by every group).
    pub depth: usize,
    /// Per-group deliveries waiting to be dequeued.
    pub ready: usize,
    /// Per-group deliveries currently invisible (dequeued, unacked).
    pub inflight: usize,
    /// Per-group deliveries acked but whose message still awaits other
    /// groups.
    pub acked: usize,
    /// Per-group deliveries terminally dead (mirrored in the DLQ).
    pub dead: usize,
    /// Rows in the dead-letter queue.
    pub dead_letters: usize,
}

/// Handle returned by [`QueueManager::enqueue_internal`]; pass it to
/// [`QueueManager::complete_internal`] after committing the transaction so
/// the message becomes visible to consumers' ready heaps. (If the
/// transaction rolls back, simply drop it — stale heap entries are
/// filtered at dequeue.)
#[derive(Debug)]
pub struct PendingEnqueue {
    queue: String,
    groups: Vec<String>,
    id: u64,
    priority: i64,
}

impl PendingEnqueue {
    /// The id the message will have once committed.
    pub fn id(&self) -> u64 {
        self.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evdb_storage::DbOptions;
    use evdb_types::SimClock;

    fn setup() -> (Arc<Database>, QueueManager, Arc<SimClock>) {
        let clock = SimClock::new(TimestampMs(1_000));
        let db = Database::in_memory(DbOptions {
            clock: clock.clone(),
            ..Default::default()
        })
        .unwrap();
        let mgr = QueueManager::attach(Arc::clone(&db)).unwrap();
        mgr.create_queue(
            "orders",
            Schema::of(&[("oid", DataType::Int), ("amt", DataType::Float)]),
            QueueConfig::default()
                .visibility_timeout(5_000)
                .max_attempts(2),
        )
        .unwrap();
        mgr.subscribe("orders", "billing").unwrap();
        (db, mgr, clock)
    }

    fn pay(oid: i64, amt: f64) -> Record {
        Record::from_iter([Value::Int(oid), Value::Float(amt)])
    }

    #[test]
    fn enqueue_dequeue_ack_lifecycle() {
        let (_db, mgr, _clock) = setup();
        let id1 = mgr.enqueue("orders", pay(1, 10.0), "test").unwrap();
        let id2 = mgr.enqueue("orders", pay(2, 20.0), "test").unwrap();
        assert!(id2 > id1);
        assert_eq!(mgr.depth("orders").unwrap(), 2);

        let d = mgr.dequeue("orders", "billing", 10).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].message.id, id1); // FIFO
        assert_eq!(d[0].attempt, 1);
        assert_eq!(d[0].message.payload, pay(1, 10.0));

        // Invisible while in flight.
        assert!(mgr.dequeue("orders", "billing", 10).unwrap().is_empty());

        mgr.ack(&d[0]).unwrap();
        mgr.ack(&d[1]).unwrap();
        assert_eq!(mgr.depth("orders").unwrap(), 0); // reclaimed
        assert!(mgr.ack(&d[0]).is_err()); // double ack
    }

    #[test]
    fn schema_validation_on_client_path() {
        let (_db, mgr, _clock) = setup();
        assert!(mgr
            .enqueue("orders", Record::from_iter([Value::from("bad")]), "t")
            .is_err());
        assert!(mgr.enqueue("ghost", pay(1, 1.0), "t").is_err());
    }

    #[test]
    fn priorities_beat_fifo() {
        let (_db, mgr, _clock) = setup();
        mgr.enqueue_with("orders", pay(1, 1.0), "t", Some(0), 0).unwrap();
        mgr.enqueue_with("orders", pay(2, 2.0), "t", Some(5), 0).unwrap();
        mgr.enqueue_with("orders", pay(3, 3.0), "t", Some(5), 0).unwrap();
        let d = mgr.dequeue("orders", "billing", 3).unwrap();
        let oids: Vec<i64> = d
            .iter()
            .map(|x| x.message.payload.get(0).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(oids, vec![2, 3, 1]); // high priority first, FIFO within
    }

    #[test]
    fn visibility_timeout_redelivers() {
        let (_db, mgr, clock) = setup();
        mgr.enqueue("orders", pay(1, 1.0), "t").unwrap();
        let d = mgr.dequeue("orders", "billing", 1).unwrap();
        assert_eq!(d.len(), 1);
        assert!(mgr.dequeue("orders", "billing", 1).unwrap().is_empty());

        clock.advance(6_000); // past the 5s visibility timeout
        assert_eq!(mgr.reap_timeouts("orders").unwrap(), 1);
        let d2 = mgr.dequeue("orders", "billing", 1).unwrap();
        assert_eq!(d2.len(), 1);
        assert_eq!(d2[0].attempt, 2);
    }

    #[test]
    fn nack_redelivers_then_dead_letters() {
        let (_db, mgr, _clock) = setup();
        mgr.enqueue("orders", pay(1, 1.0), "t").unwrap();

        let d = mgr.dequeue("orders", "billing", 1).unwrap().remove(0);
        mgr.nack(&d, "boom").unwrap(); // attempt 1 < max 2 → ready again

        let d = mgr.dequeue("orders", "billing", 1).unwrap().remove(0);
        assert_eq!(d.attempt, 2);
        mgr.nack(&d, "boom again").unwrap(); // attempts exhausted → DLQ

        assert!(mgr.dequeue("orders", "billing", 1).unwrap().is_empty());
        assert_eq!(mgr.dead_letter_count("orders").unwrap(), 1);
        assert_eq!(mgr.depth("orders").unwrap(), 0); // reclaimed after DLQ
    }

    #[test]
    fn fan_out_to_multiple_groups() {
        let (_db, mgr, _clock) = setup();
        mgr.subscribe("orders", "audit").unwrap();
        mgr.enqueue("orders", pay(1, 1.0), "t").unwrap();

        let b = mgr.dequeue("orders", "billing", 1).unwrap();
        let a = mgr.dequeue("orders", "audit", 1).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(a.len(), 1);

        mgr.ack(&b[0]).unwrap();
        assert_eq!(mgr.depth("orders").unwrap(), 1); // audit still owes an ack
        mgr.ack(&a[0]).unwrap();
        assert_eq!(mgr.depth("orders").unwrap(), 0);
    }

    #[test]
    fn delayed_messages_become_visible_later() {
        let (_db, mgr, clock) = setup();
        mgr.enqueue_with("orders", pay(1, 1.0), "t", None, 10_000)
            .unwrap();
        assert!(mgr.dequeue("orders", "billing", 1).unwrap().is_empty());
        clock.advance(10_001);
        assert_eq!(mgr.dequeue("orders", "billing", 1).unwrap().len(), 1);
    }

    #[test]
    fn internal_enqueue_joins_caller_txn() {
        let (db, mgr, _clock) = setup();
        // Committed path.
        let mut tx = db.begin();
        let pending = mgr
            .enqueue_internal(&mut tx, "orders", pay(1, 1.0), "trigger:x")
            .unwrap();
        tx.commit().unwrap();
        mgr.complete_internal(pending);
        assert_eq!(mgr.dequeue("orders", "billing", 1).unwrap().len(), 1);

        // Rolled-back path: message must never surface.
        let mut tx = db.begin();
        let pending = mgr
            .enqueue_internal(&mut tx, "orders", pay(2, 2.0), "trigger:x")
            .unwrap();
        tx.rollback();
        mgr.complete_internal(pending); // heap gets a stale entry
        assert!(mgr.dequeue("orders", "billing", 1).unwrap().is_empty());
    }

    #[test]
    fn unsubscribe_releases_messages() {
        let (_db, mgr, _clock) = setup();
        mgr.subscribe("orders", "audit").unwrap();
        mgr.enqueue("orders", pay(1, 1.0), "t").unwrap();
        let b = mgr.dequeue("orders", "billing", 1).unwrap();
        mgr.ack(&b[0]).unwrap();
        assert_eq!(mgr.depth("orders").unwrap(), 1);
        mgr.unsubscribe("orders", "audit").unwrap();
        assert_eq!(mgr.depth("orders").unwrap(), 0); // reclaimed
        assert!(mgr.dequeue("orders", "audit", 1).is_err());
    }

    #[test]
    fn browse_is_non_destructive() {
        let (_db, mgr, _clock) = setup();
        mgr.enqueue("orders", pay(1, 1.0), "src-a").unwrap();
        mgr.enqueue("orders", pay(2, 2.0), "src-b").unwrap();
        let msgs = mgr.browse("orders", 10).unwrap();
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[0].source, "src-a");
        assert_eq!(mgr.depth("orders").unwrap(), 2);
    }

    #[test]
    fn retention_purge() {
        let clock = SimClock::new(TimestampMs(1_000));
        let db = Database::in_memory(DbOptions {
            clock: clock.clone(),
            ..Default::default()
        })
        .unwrap();
        let mgr = QueueManager::attach(Arc::clone(&db)).unwrap();
        mgr.create_queue(
            "q",
            Schema::of(&[("x", DataType::Int)]),
            QueueConfig::default().retention(1_000),
        )
        .unwrap();
        mgr.subscribe("q", "g").unwrap();
        mgr.enqueue("q", Record::from_iter([1i64]), "t").unwrap();
        clock.advance(500);
        mgr.enqueue("q", Record::from_iter([2i64]), "t").unwrap();
        clock.advance(700); // first message is now 1200ms old
        assert_eq!(mgr.purge_expired("q").unwrap(), 1);
        assert_eq!(mgr.depth("q").unwrap(), 1);
        let d = mgr.dequeue("q", "g", 10).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].message.payload, Record::from_iter([2i64]));
    }

    #[test]
    fn select_messages_evaluates_internal_data() {
        let (_db, mgr, _clock) = setup();
        for i in 0..10 {
            mgr.enqueue("orders", pay(i, i as f64 * 10.0), "t").unwrap();
        }
        let hot = mgr
            .select_messages("orders", &evdb_expr::parse("amt >= 70").unwrap())
            .unwrap();
        assert_eq!(hot.len(), 3);
        assert!(hot.windows(2).all(|w| w[0].id < w[1].id));
        assert_eq!(mgr.depth("orders").unwrap(), 10); // non-destructive
        assert!(mgr
            .select_messages("orders", &evdb_expr::parse("ghost = 1").unwrap())
            .is_err());
    }

    #[test]
    fn dead_letters_can_be_requeued() {
        let (_db, mgr, _clock) = setup();
        mgr.enqueue("orders", pay(1, 1.0), "t").unwrap();
        let d = mgr.dequeue("orders", "billing", 1).unwrap().remove(0);
        mgr.nack(&d, "boom").unwrap();
        let d = mgr.dequeue("orders", "billing", 1).unwrap().remove(0);
        mgr.nack(&d, "boom").unwrap(); // max 2 attempts → DLQ
        assert_eq!(mgr.dead_letter_count("orders").unwrap(), 1);
        assert_eq!(mgr.depth("orders").unwrap(), 0);

        let new_id = mgr
            .requeue_dead_letter("orders", d.message.id, "billing")
            .unwrap();
        assert!(new_id > d.message.id);
        assert_eq!(mgr.dead_letter_count("orders").unwrap(), 0);
        let rd = mgr.dequeue("orders", "billing", 1).unwrap().remove(0);
        assert_eq!(rd.message.payload, pay(1, 1.0));
        assert_eq!(rd.attempt, 1); // fresh attempt budget
        assert!(rd.message.source.starts_with("requeue:"));
        assert!(mgr
            .requeue_dead_letter("orders", d.message.id, "billing")
            .is_err()); // already requeued
    }

    #[test]
    fn stats_reflect_delivery_states() {
        let (_db, mgr, _clock) = setup();
        mgr.subscribe("orders", "audit").unwrap();
        for i in 0..3 {
            mgr.enqueue("orders", pay(i, 1.0), "t").unwrap();
        }
        let d = mgr.dequeue("orders", "billing", 2).unwrap();
        mgr.ack(&d[0]).unwrap();

        let st = mgr.stats("orders").unwrap();
        assert_eq!(st.depth, 3);
        // billing: 1 acked, 1 inflight, 1 ready; audit: 3 ready.
        assert_eq!(st.acked, 1);
        assert_eq!(st.inflight, 1);
        assert_eq!(st.ready, 4);
        assert_eq!(st.dead, 0);
        assert_eq!(st.dead_letters, 0);
    }

    #[test]
    fn drop_queue_cleans_catalog() {
        let (db, mgr, _clock) = setup();
        mgr.enqueue("orders", pay(1, 1.0), "t").unwrap();
        mgr.drop_queue("orders").unwrap();
        assert!(mgr.drop_queue("orders").is_err());
        assert!(mgr.depth("orders").is_err());
        assert!(db.table(&msg_table("orders")).is_err());
        assert!(db.table(GROUPS).unwrap().scan().is_empty());
    }

    #[test]
    fn purge_then_ack_is_idempotent_noop() {
        // Retention purge races an in-flight consumer: the consumer's
        // later ack/nack must be a counted no-op, not a protocol error.
        let clock = SimClock::new(TimestampMs(1_000));
        let registry = Arc::new(evdb_obs::Registry::new());
        let db = Database::in_memory(DbOptions {
            clock: clock.clone(),
            registry: Arc::clone(&registry),
            ..Default::default()
        })
        .unwrap();
        let mgr = QueueManager::attach(Arc::clone(&db)).unwrap();
        mgr.create_queue(
            "jobs",
            Schema::of(&[("jid", DataType::Int)]),
            QueueConfig::default()
                .visibility_timeout(60_000)
                .retention(10_000),
        )
        .unwrap();
        mgr.subscribe("jobs", "workers").unwrap();
        mgr.enqueue("jobs", Record::from_iter([Value::Int(1)]), "t").unwrap();

        let d = mgr.dequeue("jobs", "workers", 1).unwrap().remove(0);
        clock.advance(20_000); // past retention, inside visibility
        assert_eq!(mgr.purge_expired("jobs").unwrap(), 1);
        assert_eq!(mgr.depth("jobs").unwrap(), 0);

        mgr.ack(&d).unwrap(); // would have been "ack of unknown delivery"
        mgr.ack(&d).unwrap(); // idempotent: repeated acks stay no-ops
        mgr.nack(&d, "late").unwrap(); // nack of the purged delivery too
        assert_eq!(
            registry.counter("evdb_queue_purged_inflight_total").get(),
            1
        );
        // The race path must not loosen the protocol for anything else:
        // a delivery that was never handed out is still unknown.
        let mut ghost = d.clone();
        ghost.message.id += 1;
        assert!(mgr.ack(&ghost).is_err());
    }

    #[test]
    fn create_queue_rejects_invalid_config() {
        let (_db, mgr, _clock) = setup();
        for bad in [
            QueueConfig::default().visibility_timeout(-1),
            QueueConfig::default().max_attempts(0),
            QueueConfig::default().retention(-1),
        ] {
            let err = mgr
                .create_queue("badq", Schema::of(&[("k", DataType::Int)]), bad)
                .unwrap_err();
            assert_eq!(err.kind(), "invalid");
        }
        // Nothing half-created: the name stays free for a valid config.
        mgr.create_queue(
            "badq",
            Schema::of(&[("k", DataType::Int)]),
            QueueConfig::default(),
        )
        .unwrap();
    }

    #[test]
    fn attach_rejects_wrapped_max_attempts() {
        // A stored negative max_attempts used to wrap through `as u32`
        // to ~4 billion, silently disabling dead-lettering.
        let (db, _mgr, _clock) = setup();
        let row = db.table(META).unwrap().get(&Value::from("orders")).unwrap();
        let mut bad = row.clone();
        bad.set(3, Value::Int(-3));
        db.update(META, &Value::from("orders"), bad).unwrap();
        let err = QueueManager::attach(Arc::clone(&db)).err().unwrap();
        assert_eq!(err.kind(), "corruption");
        assert!(err.to_string().contains("max_attempts"));

        // Out-of-range-positive wraps are rejected by the same check.
        let mut huge = row.clone();
        huge.set(3, Value::Int(i64::from(u32::MAX) + 1));
        db.update(META, &Value::from("orders"), huge).unwrap();
        assert!(QueueManager::attach(Arc::clone(&db)).is_err());

        // And a stored negative visibility timeout is rejected too
        // (zero is legal: instantly-redeliverable mode).
        let mut neg_vis = row.clone();
        neg_vis.set(2, Value::Int(-1));
        db.update(META, &Value::from("orders"), neg_vis).unwrap();
        assert!(QueueManager::attach(Arc::clone(&db)).is_err());

        db.update(META, &Value::from("orders"), row).unwrap();
        QueueManager::attach(db).unwrap();
    }
}
