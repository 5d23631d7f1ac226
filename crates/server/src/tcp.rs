//! The TCP line-protocol frontend: framed requests in, framed replies
//! and subscription pushes out.
//!
//! One reader thread per connection parses frames off the socket and
//! dispatches them through [`Session`]; one writer thread per
//! connection drains the session's outbound channel. Splitting the
//! halves means a subscription push never interleaves bytes with a
//! reply (both funnel through the single writer) and a `Block`ed
//! admission call — which parks the *reader* — leaves already-queued
//! replies flowing while TCP flow control stalls the producer.
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

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use evdb_core::EventServer;

use crate::frame::{encode_frame, encode_frame_vec, FrameDecoder};
use crate::hub::{burst, Hub, Outbound, OutboundReceiver, ServerMetrics};
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
    /// Outbound channel capacity per session (subscription buffering).
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
    listener.set_nonblocking(true)?;
    let handle = std::thread::Builder::new()
        .name("evdb-tcp-accept".into())
        .spawn(move || accept_loop(listener, frontend))
        .expect("spawn tcp accept thread");
    Ok((local, handle))
}

/// Refuse an over-cap connect: one typed frame, then close. Runs on
/// the accept thread, so the write is timeout-bounded.
fn reject_over_cap(stream: TcpStream, max: usize) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut s = stream;
    let frame = encode_frame_vec(
        format!("ERR overloaded connection limit ({max}) reached").as_bytes(),
    );
    let _ = s.write_all(&frame).and_then(|()| s.flush());
    let _ = s.shutdown(std::net::Shutdown::Both);
}

fn accept_loop(listener: TcpListener, frontend: TcpFrontend) {
    while !frontend.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if !frontend.hub.try_admit_connection(frontend.max_connections) {
                    frontend.metrics.conns_rejected.inc();
                    reject_over_cap(stream, frontend.max_connections);
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
                            stream, session_id, engine, hub, metrics, stop, buffer,
                            idle_timeout,
                        );
                    });
                if spawned.is_err() {
                    // The handler never ran: release the slot claimed
                    // above or the gauge leaks a phantom connection.
                    frontend.hub.release_connection();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn serve_connection(
    stream: TcpStream,
    session_id: u64,
    engine: Arc<EventServer>,
    hub: Arc<Hub>,
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
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            hub.release_connection();
            return;
        }
    };
    let activity = Activity::new();
    let (tx, rx) = sync_channel::<Outbound>(buffer.max(1));
    let writer = {
        let metrics = Arc::clone(&metrics);
        let activity = Arc::clone(&activity);
        std::thread::Builder::new()
            .name(format!("evdb-conn-{session_id}-w"))
            .spawn(move || writer_loop(write_half, rx, metrics, activity))
            .expect("spawn connection writer")
    };

    let session = Session {
        id: session_id,
        engine,
        hub: Arc::clone(&hub),
        metrics: Arc::clone(&metrics),
        out: tx,
    };
    reader_loop(stream, &session, &stop, &activity, idle_timeout);

    // Teardown: subscriptions first (so the hub stops queueing into this
    // session), then drop our sender so the writer drains and exits.
    session.teardown();
    drop(session);
    let _ = writer.join();
    hub.release_connection();
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
    'conn: while !stop.load(Ordering::SeqCst) {
        match stream.read(&mut buf) {
            Ok(0) => break, // peer closed
            Ok(n) => {
                activity.touch();
                decoder.push(&buf[..n]);
                while let Some(frame) = decoder.next_frame() {
                    match frame {
                        Ok(payload) => {
                            session.metrics.frames_rx.inc();
                            // Requests are text; lossy decoding keeps the
                            // reply path panic-free on arbitrary bytes.
                            let line = String::from_utf8_lossy(&payload);
                            if !session.handle_line(&line) {
                                break 'conn;
                            }
                        }
                        Err(e) => {
                            session.metrics.errors.inc();
                            session.reply(format!("ERR frame {e}"));
                        }
                    }
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
                        let _ = session.out.send(Outbound::Close);
                        break;
                    }
                }
                continue;
            }
            Err(_) => break,
        }
    }
}

fn writer_loop(
    stream: TcpStream,
    rx: OutboundReceiver,
    metrics: Arc<ServerMetrics>,
    activity: Arc<Activity>,
) {
    let mut out = std::io::BufWriter::new(stream);
    let mut scratch = Vec::with_capacity(4 * 1024);
    'conn: while let Ok(first) = rx.recv() {
        for msg in burst(first, &rx) {
            let Outbound::Frame(text) = msg else {
                break 'conn; // Outbound::Close; `into_inner` flushes
            };
            scratch.clear();
            encode_frame(text.as_bytes(), &mut scratch);
            metrics.frames_tx.inc();
            if out.write_all(&scratch).is_err() {
                break 'conn; // peer gone; reader will notice on its own
            }
        }
        if out.flush().is_err() {
            break;
        }
        // A completed push is proof of life: the peer drained its
        // window, so the idle deadline resets.
        activity.touch();
    }
    if let Ok(stream) = out.into_inner() {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evdb_core::metrics::Registry;

    /// A connected loopback pair: (the writer's half, the peer's half).
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (ours, _) = listener.accept().unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        (ours, peer)
    }

    fn spawn_writer(
        stream: TcpStream,
        rx: OutboundReceiver,
    ) -> (Arc<ServerMetrics>, std::thread::JoinHandle<()>) {
        let metrics = Arc::new(ServerMetrics::bind(&Registry::new(), &Hub::new()));
        let m = Arc::clone(&metrics);
        let writer = std::thread::spawn(move || writer_loop(stream, rx, m, Activity::new()));
        (metrics, writer)
    }

    /// Read frames off `peer` until `n` have arrived.
    fn read_frames(peer: &mut TcpStream, decoder: &mut FrameDecoder, n: usize) -> Vec<String> {
        let mut frames = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            while let Some(frame) = decoder.next_frame() {
                frames.push(String::from_utf8(frame.unwrap()).unwrap());
            }
            if frames.len() >= n {
                return frames;
            }
            let read = peer.read(&mut buf).expect("frame before the read timeout");
            assert!(read > 0, "writer hung up after {} of {n} frames", frames.len());
            decoder.push(&buf[..read]);
        }
    }

    #[test]
    fn queued_frames_arrive_intact_and_in_order() {
        // More than one flush round, and more bytes than the BufWriter
        // holds, all queued before the writer runs.
        let n = 3 * crate::hub::BURST_MAX + 7;
        let sent: Vec<String> = (0..n).map(|i| format!("UPDATE q + {i} {}", "x".repeat(i % 97))).collect();
        let (ours, mut peer) = socket_pair();
        let (tx, rx) = sync_channel::<Outbound>(n + 1);
        for line in &sent {
            tx.send(Outbound::Frame(line.clone())).unwrap();
        }
        tx.send(Outbound::Close).unwrap();
        let (metrics, writer) = spawn_writer(ours, rx);
        let got = read_frames(&mut peer, &mut FrameDecoder::new(), n);
        assert_eq!(got, sent);
        writer.join().unwrap();
        assert_eq!(metrics.frames_tx.get(), n as u64);
        // Close after the frames: the peer sees a clean end of stream.
        assert_eq!(peer.read(&mut [0u8; 16]).unwrap(), 0);
    }

    #[test]
    fn a_lone_frame_is_flushed_without_a_second() {
        let (ours, mut peer) = socket_pair();
        let (tx, rx) = sync_channel::<Outbound>(4);
        let (_metrics, writer) = spawn_writer(ours, rx);
        let mut decoder = FrameDecoder::new();
        // The channel stays open and empty after each frame, so only a
        // flush per round can get the frame to the peer.
        for line in ["OK first", "OK second"] {
            tx.send(Outbound::Frame(line.into())).unwrap();
            assert_eq!(read_frames(&mut peer, &mut decoder, 1), vec![line]);
        }
        drop(tx);
        writer.join().unwrap();
    }
}
