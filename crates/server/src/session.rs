//! Sessioned request dispatch, shared by the TCP frontend (every
//! command) and the HTTP frontend (the ingest/query/pump subset).
//!
//! A session is one transport connection: a unique id, the
//! connection's [`Outbox`], and whatever subscriptions it has
//! registered with the [`Hub`]. Dispatch itself is synchronous — the
//! admission gate inside [`EventServer::stage`] is what turns a
//! full staged buffer into either a stalled reader (Block → socket
//! backpressure), an `ERR overloaded` reply (Reject), or a counted
//! shed (ShedLowest), making the overload policy a client-visible
//! contract (DESIGN.md D13).
//!
//! Dispatch only *appends* replies to the outbox and only *stages*
//! events. The connection's reader calls [`Session::end_of_read`] once
//! it has dispatched every frame of one `read()`: that runs the cycle
//! over what was staged (on this thread, if a background pump is
//! attached — `EventServer::run_staged`), then flushes the replies.
//! Subscribers hear before the producer is acknowledged, and a
//! pipelined burst costs one cycle and one `send`.

use std::cell::Cell;
use std::sync::Arc;

use evdb_core::server::CaptureMechanism;
use evdb_core::EventServer;

use crate::hub::{Hub, ServerMetrics};
use crate::outbox::Outbox;
use crate::protocol::{parse_record, parse_request, render_err, render_proto_err, Request};

/// One connection's dispatch context.
pub struct Session {
    /// Unique session id (subscription ownership key).
    pub id: u64,
    /// The engine facade.
    pub engine: Arc<EventServer>,
    /// Shared fan-out hub.
    pub hub: Arc<Hub>,
    /// Server-layer counters.
    pub metrics: Arc<ServerMetrics>,
    /// This connection's outbound buffer.
    pub(crate) out: Arc<Outbox>,
    /// An `INGEST` staged an event since the last
    /// [`end_of_read`](Session::end_of_read).
    pub(crate) staged: Cell<bool>,
}

impl Session {
    /// Queue one reply frame (drops silently if the peer is gone — the
    /// reader loop notices the dead socket on its own). On the wire at
    /// the next [`end_of_read`](Session::end_of_read).
    pub fn reply(&self, frame: String) {
        self.out.reply(&frame);
    }

    /// The reader has dispatched every frame of one `read()`: evaluate
    /// what they staged, then send what they were answered.
    pub fn end_of_read(&self) {
        if self.staged.replace(false) {
            self.engine.run_staged();
        }
        self.out.flush();
    }

    fn reply_err(&self, frame: String) {
        self.metrics.errors.inc();
        self.reply(frame);
    }

    /// Parse and dispatch one request frame. Returns `false` when the
    /// session asked to close.
    pub fn handle_line(&self, line: &str) -> bool {
        self.metrics.requests.inc();
        match parse_request(line) {
            Ok(req) => self.dispatch(req),
            Err(msg) => {
                self.reply_err(render_proto_err(&msg));
                true
            }
        }
    }

    fn dispatch(&self, req: Request) -> bool {
        match req {
            Request::Ping => self.reply("PONG".into()),
            Request::Quit => {
                self.reply("BYE".into());
                self.out.close();
                return false;
            }
            Request::CreateStream { name, schema } => {
                match self.engine.create_stream(&name, schema) {
                    Ok(()) => self.reply("OK".into()),
                    Err(e) => self.reply_err(render_err(&e)),
                }
            }
            Request::CreateTable { name, schema, key } => {
                match self.engine.db().create_table(&name, schema, &key) {
                    Ok(_) => self.reply("OK".into()),
                    Err(e) => self.reply_err(render_err(&e)),
                }
            }
            Request::Capture { table, journal } => {
                let mechanism = if journal {
                    CaptureMechanism::Journal
                } else {
                    CaptureMechanism::Trigger
                };
                match self.engine.capture_table(&table, mechanism) {
                    Ok(stream) => self.reply(format!("OK {stream}")),
                    Err(e) => self.reply_err(render_err(&e)),
                }
            }
            Request::RegisterQuery { name, cql } => {
                match self.engine.register_cql(&name, &cql) {
                    // Attach the hub's materialized view immediately, so
                    // a later GET sees every result row the query emitted
                    // since registration, not just since first read.
                    Ok(()) => match self.hub.ensure_query(&self.engine, &name) {
                        Ok(()) => self.reply("OK".into()),
                        Err(e) => self.reply_err(render_err(&e)),
                    },
                    Err(e) => self.reply_err(render_err(&e)),
                }
            }
            Request::Ingest { stream, ts, values } => match self.stage(&stream, ts, &values) {
                Ok(()) => self.reply("OK staged".into()),
                Err(e) => self.reply_err(render_err(&e)),
            },
            Request::Insert { table, values } => match self.insert(&table, &values) {
                Ok(()) => self.reply("OK inserted".into()),
                Err(e) => self.reply_err(render_err(&e)),
            },
            Request::Subscribe { query } => {
                match self.hub.ensure_query(&self.engine, &query) {
                    Ok(()) => {
                        self.hub
                            .subscribe_outbox(&query, self.id, Arc::clone(&self.out));
                        self.reply(format!("OK subscribed {query}"));
                    }
                    Err(e) => self.reply_err(render_err(&e)),
                }
            }
            Request::Unsubscribe { query } => {
                if self.hub.unsubscribe(&query, self.id) {
                    self.reply(format!("OK unsubscribed {query}"));
                } else {
                    self.reply_err(render_proto_err(&format!(
                        "not subscribed to '{query}'"
                    )));
                }
            }
            Request::Get { query } => match self.hub.ensure_query(&self.engine, &query) {
                Ok(()) => {
                    let view = self.hub.rows(&query).unwrap_or_default();
                    for row in &view.rows {
                        self.reply(format!("ROW {row}"));
                    }
                    // A view truncated at its cap says so.
                    let n = view.rows.len();
                    self.reply(match view.evicted {
                        0 => format!("OK {n} rows"),
                        m => format!("OK {n} rows evicted={m}"),
                    });
                }
                Err(e) => self.reply_err(render_err(&e)),
            },
            Request::Pump => match self.engine.pump() {
                Ok(stats) => self.reply(format!(
                    "OK captured={} derived={} notified={}",
                    stats.captured, stats.derived, stats.notified
                )),
                Err(e) => self.reply_err(render_err(&e)),
            },
            Request::Stats => {
                let ac = self.engine.admission();
                self.reply(format!(
                    "OK depth={} shed={} rejected={} dropped_capture={}",
                    ac.depth(),
                    ac.shed_total(),
                    ac.rejected_total(),
                    ac.dropped_capture_total()
                ));
            }
        }
        true
    }

    /// Stage one event through admission control, quietly: the cycle
    /// runs at [`end_of_read`](Session::end_of_read). Under `Block` this
    /// call parks until the pump drains — the reader stops consuming
    /// and TCP flow control propagates the stall to the producer.
    fn stage(
        &self,
        stream: &str,
        ts: evdb_types::TimestampMs,
        values: &str,
    ) -> evdb_types::Result<()> {
        let schema = self.engine.runtime().stream_schema(stream)?;
        let record = parse_record(&schema, values)?;
        self.engine.stage(stream, ts, record)?;
        self.staged.set(true);
        Ok(())
    }

    /// Insert through the storage engine; a trigger capture's admission
    /// check runs inside this write, so `Reject` rolls the row back
    /// before the error reaches the client. The trigger wakes the pump
    /// itself (`admit`): no cycle may run inside the writer's
    /// transaction, so this stages nothing for `end_of_read`.
    fn insert(&self, table: &str, values: &str) -> evdb_types::Result<()> {
        let table_ref = self.engine.db().table(table)?;
        let record = parse_record(table_ref.schema(), values)?;
        self.engine.db().insert(table, record).map(|_| ())
    }

    /// Connection teardown: drop every subscription this session holds.
    pub fn teardown(&self) {
        self.hub.remove_session(self.id);
    }
}
