//! The TCP line-protocol frontend: framed requests in, framed replies
//! and subscription pushes out.
//!
//! **Threading model** (DESIGN.md D13). Each connection has a reader
//! thread and a writer thread, and on the served path only the reader
//! runs. It parses frames off the socket and dispatches them through
//! [`Session`], which appends replies to the connection's [`Outbox`] and
//! stages `INGEST`ed events quietly; after the last frame of one
//! `read()` it runs the cycle those events need itself
//! (`EventServer::run_staged` — when a background pump is attached;
//! a cycle in flight on another thread is waited out) and then sends
//! its replies with one non-blocking `send`. The cycle's `UPDATE`s were appended to the
//! subscribers' outboxes and sent the same way, by the same thread, at
//! the engine's end-of-batch signal. So a paced request costs no thread
//! hand-off at all. The other threads are for what that path cannot do:
//! the pump thread for ticks, trigger captures and what a reader left
//! staged after its few passes; a connection's writer thread for the tail of a send the
//! socket did not take whole (a slow or stalled peer), and for the last
//! frames of a closing session.
//!
//! Whoever writes, a subscription push never interleaves bytes with a
//! reply (one buffer, one writer at a time — see [`crate::outbox`]), and
//! a `Block`ed admission call — which parks the *reader* — leaves
//! already-handed-off frames flowing while TCP flow control stalls the
//! producer.
//!
//! Connections are resource-bounded (DESIGN.md D13): the accept loop
//! refuses connects past `max_connections` with a typed
//! `ERR overloaded …` frame (counted, never silently dropped), and the
//! reader's idle tick closes a connection with no traffic in either
//! direction for `idle_timeout` — an `ERR idle …` frame, then the
//! thread and the session's hub slot are released. Pushes count as
//! traffic, so a quiet subscriber that is still being fed is never
//! reaped; a silently-dead peer stops acking, its pushes stop
//! completing, and the deadline catches it.

use std::cell::Cell;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use evdb_core::EventServer;

use crate::frame::{encode_frame_vec, FrameDecoder};
use crate::hub::{Hub, ServerMetrics};
use crate::outbox::Outbox;
use crate::session::Session;

/// How long a blocked read waits before re-checking the stop flag (and
/// the idle deadline).
const READ_TICK: Duration = Duration::from_millis(50);

/// Write timeout when no idle deadline is configured: a peer that
/// stops draining for this long is treated as gone, so the writer
/// thread can never block forever against a dead socket.
const DEFAULT_WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Last-activity stamp shared by a connection's reader and writer: the
/// reader touches it on inbound bytes, the writer on completed frame
/// writes, and the reader's idle tick compares it against the idle
/// deadline.
pub(crate) struct Activity {
    epoch: Instant,
    last_ms: AtomicU64,
}

impl Activity {
    pub(crate) fn new() -> Arc<Activity> {
        Arc::new(Activity {
            epoch: Instant::now(),
            last_ms: AtomicU64::new(0),
        })
    }

    /// Record traffic now.
    pub(crate) fn touch(&self) {
        let now = self.epoch.elapsed().as_millis() as u64;
        self.last_ms.store(now, Ordering::Relaxed);
    }

    /// Time since the last recorded traffic.
    pub(crate) fn idle(&self) -> Duration {
        let now = self.epoch.elapsed().as_millis() as u64;
        Duration::from_millis(now.saturating_sub(self.last_ms.load(Ordering::Relaxed)))
    }
}

pub(crate) struct TcpFrontend {
    pub engine: Arc<EventServer>,
    pub hub: Arc<Hub>,
    pub metrics: Arc<ServerMetrics>,
    pub stop: Arc<AtomicBool>,
    pub session_ids: Arc<AtomicU64>,
    /// Frames a session's outbox queues before subscription pushes are
    /// shed for it.
    pub session_buffer: usize,
    /// Cap on live connections (shared with the HTTP frontend).
    pub max_connections: usize,
    /// Reap connections idle in both directions past this.
    pub idle_timeout: Option<Duration>,
}

/// Bind the listener and spawn the accept loop. Returns the bound
/// address (resolves `:0` to the ephemeral port) and the accept thread.
pub(crate) fn spawn_listener(
    frontend: TcpFrontend,
    addr: &str,
) -> std::io::Result<(SocketAddr, std::thread::JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let handle = std::thread::Builder::new()
        .name("evdb-tcp-accept".into())
        .spawn(move || accept_loop(listener, frontend))?;
    Ok((local, handle))
}

/// Refuse a connect the server has no room for: one typed
/// `ERR overloaded <why>` frame, then close. May run on the accept
/// thread, so the write is timeout-bounded.
fn refuse(stream: TcpStream, why: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut s = stream;
    let frame = encode_frame_vec(format!("ERR overloaded {why}").as_bytes());
    let _ = s.write_all(&frame).and_then(|()| s.flush());
    let _ = s.shutdown(std::net::Shutdown::Both);
}

/// Blocks in `accept` — a connect gets its session thread at once, not
/// at the next poll. `NetServer::shutdown` raises `stop` and then
/// connects once to unblock it.
fn accept_loop(listener: TcpListener, frontend: TcpFrontend) {
    while !frontend.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if frontend.stop.load(Ordering::SeqCst) {
                    break;
                }
                let max = frontend.max_connections;
                if !frontend.hub.try_admit_connection(max) {
                    frontend.metrics.conns_rejected.inc();
                    refuse(stream, &format!("connection limit ({max}) reached"));
                    continue;
                }
                frontend.metrics.connections.inc();
                let session_id = frontend.session_ids.fetch_add(1, Ordering::Relaxed);
                let engine = Arc::clone(&frontend.engine);
                let hub = Arc::clone(&frontend.hub);
                let metrics = Arc::clone(&frontend.metrics);
                let stop = Arc::clone(&frontend.stop);
                let buffer = frontend.session_buffer;
                let idle_timeout = frontend.idle_timeout;
                // Connection threads are detached: they exit on stop (the
                // read timeout re-checks the flag) or peer close, and hold
                // only Arcs, so shutdown does not need to join them.
                let spawned = std::thread::Builder::new()
                    .name(format!("evdb-conn-{session_id}"))
                    .spawn(move || {
                        serve_connection(
                            stream, session_id, engine, &hub, metrics, stop, buffer,
                            idle_timeout,
                        );
                        hub.release_connection();
                    });
                if spawned.is_err() {
                    // The handler never ran: release the slot claimed
                    // above or the gauge leaks a phantom connection.
                    frontend.hub.release_connection();
                }
            }
            // Out of descriptors, or the peer reset before we got to it:
            // pause so a persistent failure cannot spin the thread.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// One connection, from its first byte to its teardown. The caller
/// releases the hub slot when this returns, whichever way it returns.
#[allow(clippy::too_many_arguments)]
fn serve_connection(
    stream: TcpStream,
    session_id: u64,
    engine: Arc<EventServer>,
    hub: &Arc<Hub>,
    metrics: Arc<ServerMetrics>,
    stop: Arc<AtomicBool>,
    buffer: usize,
    idle_timeout: Option<Duration>,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TICK));
    // Bound writes too: a dead peer with a full receive window must
    // error the writer out instead of blocking it forever (the reader
    // joins the writer at teardown).
    let _ = stream.set_write_timeout(Some(idle_timeout.unwrap_or(DEFAULT_WRITE_TIMEOUT)));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let activity = Activity::new();
    let out = Outbox::new(
        write_half,
        buffer,
        Arc::clone(&metrics),
        Arc::clone(&activity),
    );
    let writer = {
        let out = Arc::clone(&out);
        std::thread::Builder::new()
            .name(format!("evdb-conn-{session_id}-w"))
            .spawn(move || out.writer_loop())
    };
    let Ok(writer) = writer else {
        // No thread to be had: as typed and counted as the cap, and
        // the slot goes back (the caller releases it).
        metrics.conns_rejected.inc();
        refuse(stream, "cannot start the connection's writer thread");
        return;
    };

    let session = Session {
        id: session_id,
        engine,
        hub: Arc::clone(hub),
        metrics,
        out,
        staged: Cell::new(false),
    };
    reader_loop(stream, &session, &stop, &activity, idle_timeout);

    // Teardown: subscriptions first (so the hub stops queueing into this
    // session), then close the outbox so the writer sends what is left
    // and exits.
    session.teardown();
    session.out.close();
    let _ = writer.join();
}

fn reader_loop(
    mut stream: TcpStream,
    session: &Session,
    stop: &AtomicBool,
    activity: &Activity,
    idle_timeout: Option<Duration>,
) {
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    while !stop.load(Ordering::SeqCst) {
        match stream.read(&mut buf) {
            Ok(0) => break, // peer closed
            Ok(n) => {
                activity.touch();
                decoder.push(&buf[..n]);
                let mut open = true;
                while let Some(frame) = decoder.next_frame() {
                    match frame {
                        Ok(payload) => {
                            session.metrics.frames_rx.inc();
                            // Requests are text; lossy decoding keeps the
                            // reply path panic-free on arbitrary bytes.
                            let line = String::from_utf8_lossy(&payload);
                            if !session.handle_line(&line) {
                                open = false;
                                break;
                            }
                        }
                        Err(e) => {
                            session.metrics.errors.inc();
                            session.reply(format!("ERR frame {e}"));
                        }
                    }
                }
                // Everything this read carried is dispatched: one cycle
                // for what it staged, one send for what it was answered.
                session.end_of_read();
                if !open {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle tick: re-check stop, then the idle deadline. A
                // half-dead peer (slow-loris, silently-gone client)
                // releases its thread and hub slot here, typed and
                // counted — never a permanently pinned thread.
                if let Some(limit) = idle_timeout {
                    if activity.idle() >= limit {
                        session.metrics.conns_reaped.inc();
                        session.reply(format!(
                            "ERR idle connection idle for {}ms, closing",
                            limit.as_millis()
                        ));
                        break;
                    }
                }
                continue;
            }
            Err(_) => break,
        }
    }
}
