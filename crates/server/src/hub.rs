//! The subscription hub: one engine-side subscription per query fanned
//! out to every connected session, plus a compacted materialized view
//! served by `GET <query>` / `GET /query/:name`.
//!
//! The view is bounded: the rendered text of a query's newest
//! [`VIEW_ROWS`] live rows, oldest first. An insert past the cap evicts
//! the oldest row and counts it (`evdb_server_view_evicted_total`, and
//! per query in `GET`'s `OK <n> rows evicted=<m>`), so a truncated
//! answer is never mistaken for a whole one. Each update is rendered
//! once: the `UPDATE` frame's row text is what the view stores.
//!
//! Delivery never blocks the notify path. A subscriber is one of two
//! sinks: a TCP session's [`Outbox`] (the frame, encoded once per
//! update, is appended to each subscriber's byte buffer) or a bounded
//! channel (`subscribe`: SSE connections and embedders; one
//! [`Outbound`] message per update, `try_send`). Neither waits. A
//! session that disconnected is pruned on the next delivery; a session
//! that is alive but too slow to drain its buffer has updates shed —
//! counted in `evdb_server_updates_dropped_total`, never silent (D9) —
//! so one stalled subscriber cannot wedge the pump for everyone else.
//!
//! The per-row callback only buffers. Outboxes that took a frame are
//! remembered, and the engine's end-of-batch signal
//! ([`Hub::flush_outboxes`], registered by `NetServer::start`) flushes
//! each once on the thread that ran the cycle: one non-blocking `send`
//! per subscriber per batch, however many rows the batch produced.
//!
//! Ordering: the engine invokes the per-query callback sequentially
//! (one cycle at a time, D15), and the hub pushes to every session
//! inside that callback, so all subscribers observe the same per-query
//! update sequence in the same order.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, OnceLock};

use evdb_core::EventServer;
use evdb_obs::{Counter, Registry};
use evdb_types::{Record, Result};
use parking_lot::Mutex;

use crate::frame::encode_frame;
use crate::outbox::{Outbox, Push};
use crate::protocol::render_row_into;

/// Rows one query's materialized view holds before the oldest is
/// evicted — the same bound as the engine's delivered-notification log.
pub const VIEW_ROWS: usize = 8_192;

/// A message bound for one session's transport writer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outbound {
    /// A reply or pushed update frame (already protocol-rendered text).
    Frame(String),
    /// The server is closing this session (reply `BYE` sent separately).
    Close,
}

/// Sender half of a session's outbound channel.
pub type OutboundSender = SyncSender<Outbound>;
/// Receiver half, owned by the session's writer loop.
pub type OutboundReceiver = Receiver<Outbound>;

/// Most messages a transport writer covers with one write + flush:
/// under a channel that never runs empty it still flushes (and stamps
/// proof of life) this often, and its write buffer stays bounded.
pub(crate) const BURST_MAX: usize = 256;

/// `first` — what a writer's blocking receive returned — followed by
/// whatever is already queued behind it, up to [`BURST_MAX`] messages.
/// A writer encodes the whole burst and flushes once: one syscall per
/// burst instead of one per frame, and a lone frame still goes out at
/// once.
pub(crate) fn burst(first: Outbound, rx: &OutboundReceiver) -> impl Iterator<Item = Outbound> + '_ {
    std::iter::once(first).chain(rx.try_iter().take(BURST_MAX - 1))
}

/// Where a subscriber's updates go.
enum Sink {
    /// A bench- or SSE-owned channel: one message per update.
    Channel(OutboundSender),
    /// A TCP session's outbox: buffered here, flushed at end of batch.
    Outbox(Arc<Outbox>),
}

struct SubEntry {
    session: u64,
    sink: Sink,
}

/// One query's compacted materialized view: the rendered text of its
/// newest live rows, oldest first, at most [`VIEW_ROWS`] of them.
/// Inserts append; a retraction removes the oldest row with its text
/// (multiset semantics, like `DeltaLog`), and is a no-op when the row
/// was evicted or never there.
#[derive(Debug, Default, Clone)]
pub(crate) struct View {
    pub(crate) rows: VecDeque<String>,
    /// Rows this view has evicted to stay within [`VIEW_ROWS`].
    pub(crate) evicted: u64,
}

impl View {
    /// Append one row; at the cap the oldest goes, and its buffer holds
    /// the newcomer. Returns whether a row was evicted.
    fn insert(&mut self, text: &str) -> bool {
        let full = self.rows.len() >= VIEW_ROWS;
        let mut slot = if full {
            self.rows.pop_front().unwrap_or_default()
        } else {
            String::new()
        };
        slot.clear();
        slot.push_str(text);
        self.rows.push_back(slot);
        self.evicted += u64::from(full);
        full
    }

    fn retract(&mut self, text: &str) {
        if let Some(pos) = self.rows.iter().position(|r| r == text) {
            self.rows.remove(pos);
        }
    }
}

#[derive(Default)]
struct QueryState {
    view: View,
    subs: Vec<SubEntry>,
    /// The last update's `UPDATE` frame text, and the same frame encoded
    /// for outboxes: buffers reused from update to update.
    frame: String,
    encoded: Vec<u8>,
}

/// Counters the server layer adds to the shared registry (all
/// `evdb_server_*`, per the D9 naming contract).
pub struct ServerMetrics {
    /// Connections ever accepted (TCP + HTTP).
    pub connections: Arc<Counter>,
    /// Frames read off sockets.
    pub frames_rx: Arc<Counter>,
    /// Frames written to sockets (replies and pushed updates).
    pub frames_tx: Arc<Counter>,
    /// Requests parsed and dispatched.
    pub requests: Arc<Counter>,
    /// Error replies sent (protocol + engine errors).
    pub errors: Arc<Counter>,
    /// HTTP requests served.
    pub http_requests: Arc<Counter>,
    /// Subscription updates delivered into session buffers.
    pub updates_delivered: Arc<Counter>,
    /// Updates shed because a live subscriber's buffer was full.
    pub updates_dropped: Arc<Counter>,
    /// Connections refused at accept because the server was at its
    /// `max_connections` cap (typed `ERR overloaded` / HTTP 503 — the
    /// D10 no-silent-work contract at the connection layer).
    pub conns_rejected: Arc<Counter>,
    /// Connections closed by the server because the idle deadline
    /// passed with no traffic in either direction.
    pub conns_reaped: Arc<Counter>,
    /// Outbox flushes the socket took whole, on the thread that filled
    /// the outbox (no writer-thread wake-up).
    pub direct_flushes: Arc<Counter>,
    /// Outbox flushes that left a tail to the connection's writer
    /// thread (socket full, or no non-blocking send on this platform).
    pub writer_handoffs: Arc<Counter>,
    /// Rows evicted from materialized views at the [`VIEW_ROWS`] cap.
    pub view_evicted: Arc<Counter>,
}

impl ServerMetrics {
    /// Create every server counter in `registry` (eagerly, so the
    /// exposition lists them from startup) and bridge the live
    /// connection/subscription gauges.
    pub fn bind(registry: &Registry, hub: &Arc<Hub>) -> ServerMetrics {
        let h = Arc::clone(hub);
        registry.gauge_fn("evdb_server_connections_active", move || {
            h.active_connections.load(Ordering::Relaxed) as f64
        });
        let h = Arc::clone(hub);
        registry.gauge_fn("evdb_server_subscriptions_active", move || {
            h.active_subscriptions() as f64
        });
        let h = Arc::clone(hub);
        registry.gauge_fn("evdb_server_view_rows", move || h.view_rows() as f64);
        ServerMetrics {
            connections: registry.counter("evdb_server_connections_total"),
            frames_rx: registry.counter("evdb_server_frames_rx_total"),
            frames_tx: registry.counter("evdb_server_frames_tx_total"),
            requests: registry.counter("evdb_server_requests_total"),
            errors: registry.counter("evdb_server_errors_total"),
            http_requests: registry.counter("evdb_server_http_requests_total"),
            updates_delivered: registry.counter("evdb_server_updates_delivered_total"),
            updates_dropped: registry.counter("evdb_server_updates_dropped_total"),
            conns_rejected: registry.counter("evdb_server_conns_rejected_total"),
            conns_reaped: registry.counter("evdb_server_conns_reaped_total"),
            direct_flushes: registry.counter("evdb_server_direct_flushes_total"),
            writer_handoffs: registry.counter("evdb_server_writer_handoffs_total"),
            view_evicted: registry.counter("evdb_server_view_evicted_total"),
        }
    }
}

/// The per-server fan-out state shared by every frontend.
pub struct Hub {
    queries: Mutex<HashMap<String, QueryState>>,
    /// Live transport connections (bridged as a gauge).
    pub active_connections: AtomicU64,
    metrics: OnceLock<Arc<ServerMetrics>>,
    /// Outboxes holding pushes no flush has covered yet (each once, see
    /// [`Push::Queued`]); emptied by [`flush_outboxes`](Hub::flush_outboxes).
    unflushed: Mutex<Vec<Arc<Outbox>>>,
}

impl Hub {
    /// An empty hub.
    pub fn new() -> Arc<Hub> {
        Arc::new(Hub {
            queries: Mutex::new(HashMap::new()),
            active_connections: AtomicU64::new(0),
            metrics: OnceLock::new(),
            unflushed: Mutex::new(Vec::new()),
        })
    }

    /// Attach the metric handles (after [`ServerMetrics::bind`], which
    /// needs the hub for its gauges — hence two-phase). The first call
    /// wins; updates read them without a lock.
    pub fn set_metrics(&self, metrics: Arc<ServerMetrics>) {
        let _ = self.metrics.set(metrics);
    }

    /// Subscriptions currently registered across all queries.
    pub fn active_subscriptions(&self) -> usize {
        self.queries.lock().values().map(|q| q.subs.len()).sum()
    }

    /// Rows held across every query's materialized view.
    pub(crate) fn view_rows(&self) -> usize {
        self.queries
            .lock()
            .values()
            .map(|q| q.view.rows.len())
            .sum()
    }

    /// Claim a connection slot against the `max` cap. The increment
    /// happens first and is undone on refusal, so two accept loops
    /// racing can never overshoot the cap. A refused connect must be
    /// answered with the typed rejection and counted by the caller.
    pub fn try_admit_connection(&self, max: usize) -> bool {
        let prev = self.active_connections.fetch_add(1, Ordering::Relaxed);
        if (prev as usize) < max {
            true
        } else {
            self.active_connections.fetch_sub(1, Ordering::Relaxed);
            false
        }
    }

    /// Release a slot claimed by [`try_admit_connection`](Hub::try_admit_connection)
    /// — on connection teardown, or when the handler thread failed to
    /// spawn (the gauge must never leak a slot).
    pub fn release_connection(&self) {
        self.active_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Ensure the hub tracks `query`: registers the engine-side
    /// subscription on first contact so the materialized view starts
    /// accumulating. Idempotent; errors if the query does not exist.
    pub fn ensure_query(self: &Arc<Self>, engine: &EventServer, query: &str) -> Result<()> {
        {
            let queries = self.queries.lock();
            if queries.contains_key(query) {
                return Ok(());
            }
        }
        // Register outside the lock: `on_query_updates` validates the
        // query name and takes runtime locks of its own.
        let hub = Arc::clone(self);
        let qname = query.to_string();
        engine.on_query_updates(query, move |row, is_retraction| {
            hub.on_update(&qname, row, is_retraction);
        })?;
        self.queries.lock().entry(query.to_string()).or_default();
        Ok(())
    }

    /// Add a session's sender to `query`'s fan-out list.
    /// [`ensure_query`](Hub::ensure_query) must have succeeded first.
    pub fn subscribe(&self, query: &str, session: u64, sender: OutboundSender) {
        self.add_sub(query, session, Sink::Channel(sender));
    }

    /// [`subscribe`](Hub::subscribe) for a TCP session: updates are
    /// appended to its outbox and flushed at the end of each batch.
    pub(crate) fn subscribe_outbox(&self, query: &str, session: u64, outbox: Arc<Outbox>) {
        self.add_sub(query, session, Sink::Outbox(outbox));
    }

    fn add_sub(&self, query: &str, session: u64, sink: Sink) {
        let mut queries = self.queries.lock();
        let state = queries.entry(query.to_string()).or_default();
        if state.subs.iter().all(|s| s.session != session) {
            state.subs.push(SubEntry { session, sink });
        }
    }

    /// The end-of-batch half of delivery: flush every outbox the batch's
    /// updates were buffered into, on the calling thread — the one that
    /// ran the cycle. Each flush is one non-blocking send; a subscriber
    /// whose socket is full is left to its writer thread.
    pub fn flush_outboxes(&self) {
        let unflushed = std::mem::take(&mut *self.unflushed.lock());
        for outbox in unflushed {
            outbox.flush();
        }
    }

    /// Remove one session's subscription to `query`. Returns whether a
    /// subscription existed.
    pub fn unsubscribe(&self, query: &str, session: u64) -> bool {
        let mut queries = self.queries.lock();
        match queries.get_mut(query) {
            Some(state) => {
                let before = state.subs.len();
                state.subs.retain(|s| s.session != session);
                state.subs.len() < before
            }
            None => false,
        }
    }

    /// Drop every subscription a departing session holds (connection
    /// teardown). The engine-side subscription stays — the materialized
    /// view keeps accumulating for `GET`.
    pub fn remove_session(&self, session: u64) {
        let mut queries = self.queries.lock();
        for state in queries.values_mut() {
            state.subs.retain(|s| s.session != session);
        }
    }

    /// A copy of `query`'s materialized view (`None`: never ensured).
    /// A copy, so `GET` replies without holding up the fan-out.
    pub(crate) fn rows(&self, query: &str) -> Option<View> {
        self.queries.lock().get(query).map(|q| q.view.clone())
    }

    /// The engine-side delta callback: maintain the view, fan out.
    fn on_update(&self, query: &str, row: &Record, is_retraction: bool) {
        let mut queries = self.queries.lock();
        let Some(state) = queries.get_mut(query) else {
            return;
        };
        let QueryState {
            view,
            subs,
            frame,
            encoded,
        } = state;
        // Rendered once: the frame's tail is the row text the view keeps.
        let sign = if is_retraction { '-' } else { '+' };
        frame.clear();
        frame.push_str("UPDATE ");
        frame.push_str(query);
        frame.push(' ');
        frame.push(sign);
        frame.push(' ');
        let row_at = frame.len();
        render_row_into(row, frame);
        let evicted = if is_retraction {
            view.retract(&frame[row_at..]);
            false
        } else {
            view.insert(&frame[row_at..])
        };
        // Encoded on the first outbox subscriber, appended to the rest.
        encoded.clear();
        let mut delivered = 0u64;
        let mut dropped = 0u64;
        subs.retain(|sub| match &sub.sink {
            Sink::Channel(sender) => match sender.try_send(Outbound::Frame(frame.clone())) {
                Ok(()) => {
                    delivered += 1;
                    true
                }
                Err(TrySendError::Full(_)) => {
                    // Alive but lagging: shed this update, keep the
                    // subscription (the counter makes the gap visible).
                    dropped += 1;
                    true
                }
                // Receiver gone: the session died mid-stream. Pruning
                // here is what keeps a dropped subscriber from wedging
                // or slowing the notify path.
                Err(TrySendError::Disconnected(_)) => false,
            },
            Sink::Outbox(outbox) => {
                if encoded.is_empty() {
                    encode_frame(frame.as_bytes(), encoded);
                }
                match outbox.push(encoded) {
                    Push::Queued { first } => {
                        delivered += 1;
                        if first {
                            self.unflushed.lock().push(Arc::clone(outbox));
                        }
                        true
                    }
                    Push::Shed => {
                        dropped += 1;
                        true
                    }
                    Push::Gone => false,
                }
            }
        });
        drop(queries);
        if let Some(m) = self.metrics.get() {
            m.updates_delivered.add(delivered);
            m.updates_dropped.add(dropped);
            if evicted {
                m.view_evicted.inc();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evdb_core::server::ServerConfig;
    use evdb_types::{DataType, Schema, SimClock, TimestampMs, Value};
    use std::sync::mpsc::sync_channel;

    fn engine_with_query() -> EventServer {
        let engine = EventServer::in_memory(ServerConfig {
            clock: SimClock::new(TimestampMs(0)),
            ..Default::default()
        })
        .unwrap();
        engine
            .create_stream("s", Schema::of(&[("v", DataType::Int)]))
            .unwrap();
        engine
            .register_cql("q", "SELECT count() AS n FROM s [ROWS 1]")
            .unwrap();
        engine
    }

    #[test]
    fn fan_out_delivers_in_order_to_every_subscriber() {
        let engine = engine_with_query();
        let hub = Hub::new();
        hub.ensure_query(&engine, "q").unwrap();
        let (tx_a, rx_a) = sync_channel(16);
        let (tx_b, rx_b) = sync_channel(16);
        hub.subscribe("q", 1, tx_a);
        hub.subscribe("q", 2, tx_b);
        for i in 0..3 {
            engine
                .ingest("s", TimestampMs(i), evdb_types::Record::from_iter([Value::Int(i)]))
                .unwrap();
        }
        let drain = |rx: OutboundReceiver| -> Vec<Outbound> { rx.try_iter().collect() };
        let a = drain(rx_a);
        assert_eq!(a.len(), 3);
        assert_eq!(a, drain(rx_b), "all subscribers see the same sequence");
        assert_eq!(a[0], Outbound::Frame("UPDATE q + 1".into()));
    }

    #[test]
    fn dropped_subscriber_is_pruned_not_wedged() {
        let engine = engine_with_query();
        let hub = Hub::new();
        hub.ensure_query(&engine, "q").unwrap();
        let (tx, rx) = sync_channel(16);
        hub.subscribe("q", 7, tx);
        drop(rx); // session died without unsubscribing
        engine
            .ingest("s", TimestampMs(0), evdb_types::Record::from_iter([Value::Int(1)]))
            .unwrap();
        assert_eq!(hub.active_subscriptions(), 0, "dead sub must be pruned");
        // And the view still accumulates.
        assert_eq!(hub.rows("q").unwrap().rows, ["1"]);
    }

    #[test]
    fn slow_subscriber_sheds_but_stays_subscribed() {
        let engine = engine_with_query();
        let hub = Hub::new();
        hub.ensure_query(&engine, "q").unwrap();
        let (tx, rx) = sync_channel(1);
        hub.subscribe("q", 9, tx);
        for i in 0..3 {
            engine
                .ingest("s", TimestampMs(i), evdb_types::Record::from_iter([Value::Int(i)]))
                .unwrap();
        }
        // Buffer of 1: first update queued, the rest shed.
        assert_eq!(rx.try_iter().count(), 1);
        assert_eq!(hub.active_subscriptions(), 1);
    }

    #[test]
    fn outbox_subscriber_is_flushed_at_end_of_batch_and_pruned_once_dead() {
        use std::io::Read;
        let engine = engine_with_query();
        let hub = Hub::new();
        let metrics = Arc::new(ServerMetrics::bind(engine.registry(), &hub));
        hub.set_metrics(Arc::clone(&metrics));
        hub.ensure_query(&engine, "q").unwrap();
        let flusher = Arc::clone(&hub);
        engine.on_batch_end(Arc::new(move || flusher.flush_outboxes()));

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (ours, _) = listener.accept().unwrap();
        let activity = crate::tcp::Activity::new();
        let outbox = Outbox::new(ours, 16, Arc::clone(&metrics), activity);
        hub.subscribe_outbox("q", 1, outbox);
        let ingest = |i: i64| {
            engine
                .ingest(
                    "s",
                    TimestampMs(i),
                    evdb_types::Record::from_iter([Value::Int(i)]),
                )
                .unwrap();
        };

        // No writer thread runs here: only the end-of-batch flush, on
        // the ingesting thread, can have put the frame on the socket.
        ingest(0);
        let mut frame = [0u8; 13];
        peer.set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        peer.read_exact(&mut frame).unwrap();
        assert_eq!(&frame, b"UPDATE q + 1\n");
        assert_eq!(metrics.direct_flushes.get(), 1);
        assert_eq!(metrics.updates_delivered.get(), 1);

        // The peer goes away without a teardown: a flush fails, the next
        // push finds the outbox gone and the subscription is pruned.
        drop(peer);
        for i in 1.. {
            if hub.active_subscriptions() == 0 {
                break;
            }
            assert!(i < 5_000, "a dead outbox was never pruned");
            ingest(i);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(metrics.updates_dropped.get(), 0);
    }

    #[test]
    fn retraction_compacts_the_view() {
        let engine = engine_with_query();
        let hub = Hub::new();
        hub.ensure_query(&engine, "q").unwrap();
        // Simulate signed deltas directly through the callback.
        let int = |i: i64| evdb_types::Record::from_iter([Value::Int(i)]);
        for i in [1, 2, 1] {
            hub.on_update("q", &int(i), false);
        }
        assert_eq!(hub.rows("q").unwrap().rows, ["1", "2", "1"]);
        // The oldest matching row goes; the order of the rest stands.
        hub.on_update("q", &int(1), true);
        assert_eq!(hub.rows("q").unwrap().rows, ["2", "1"]);
        hub.on_update("q", &int(2), true);
        hub.on_update("q", &int(1), true);
        assert!(hub.rows("q").unwrap().rows.is_empty());
    }

    #[test]
    fn view_keeps_the_newest_rows_and_retracting_an_evicted_row_is_a_no_op() {
        let engine = engine_with_query();
        let hub = Hub::new();
        let metrics = Arc::new(ServerMetrics::bind(engine.registry(), &hub));
        hub.set_metrics(Arc::clone(&metrics));
        hub.ensure_query(&engine, "q").unwrap();
        let int = |i: i64| evdb_types::Record::from_iter([Value::Int(i)]);
        let n = VIEW_ROWS as i64 + 3;
        for i in 0..n {
            hub.on_update("q", &int(i), false);
        }
        let view = hub.rows("q").unwrap();
        assert_eq!(view.evicted, 3);
        assert_eq!(metrics.view_evicted.get(), 3);
        assert_eq!(view.rows.len(), VIEW_ROWS);
        let newest: Vec<String> = (3..n).map(|i| i.to_string()).collect();
        assert!(
            view.rows.iter().eq(newest.iter()),
            "newest rows, in arrival order"
        );

        // Row 0 was evicted: its retraction finds nothing and changes nothing.
        hub.on_update("q", &int(0), true);
        let after = hub.rows("q").unwrap();
        assert!(after.rows.iter().eq(newest.iter()));
        assert_eq!((after.evicted, hub.view_rows()), (3, VIEW_ROWS));
        // A live row's retraction still lands.
        hub.on_update("q", &int(3), true);
        assert_eq!(hub.view_rows(), VIEW_ROWS - 1);
        assert_eq!(
            hub.rows("q").unwrap().rows.front().map(String::as_str),
            Some("4")
        );
    }
}
