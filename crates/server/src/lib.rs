//! # evdb-server — the deployable network front door
//!
//! Everything below this crate is a library: [`EventServer`] captures
//! events, evaluates rules and continuous queries, and pushes deltas to
//! in-process callbacks. This crate turns that library into a server a
//! process on another machine can talk to, with three frontends over
//! one shared engine:
//!
//! * **TCP line protocol** ([`frame`] + [`protocol`] + [`session`]) —
//!   framed text requests (`INGEST`, `SUBSCRIBE`, `GET`, …) with
//!   framed replies and asynchronous `UPDATE` pushes that carry the
//!   insert/retract sign from the engine's signed delta stream.
//! * **HTTP** ([`http`]) — `POST /ingest/<stream>`, `GET /query/<name>`,
//!   and `GET /metrics` serving the shared [`Registry`] exposition.
//! * **SSE streaming** (`GET /subscribe/<name>`) — the same hub fan-out
//!   as TCP `SUBSCRIBE`, rendered as `text/event-stream`.
//!
//! The overload contract (DESIGN.md D13): admission control's policy
//! becomes client-visible behavior. `Block` parks the connection's
//! reader inside `EventServer::stage`, so TCP flow control stalls the
//! producer's socket; `Reject` surfaces as `ERR overloaded` / HTTP 503
//! with the write rolled back; `ShedLowest` accepts the write and the
//! shed shows up in `STATS` and the `evdb_ingest_shed_total` counter.
//! Nothing is silently dropped at the network layer either: fan-out
//! sheds to slow subscribers are counted in
//! `evdb_server_updates_dropped_total`.
//!
//! Threading (DESIGN.md D13): a TCP connection's reader thread stages
//! the events of one `read()`, runs the evaluation cycle for them itself
//! (one cycle at a time: it waits out another thread's), and writes the
//! results — the
//! subscribers' `UPDATE`s, then its own replies — with one non-blocking
//! send per socket ([`tcp`], `outbox`). The background pump and the
//! per-connection writer threads are for ticks, trigger captures and
//! slow peers.
//!
//! The connection lifecycle is resource-bounded (DESIGN.md D13): HTTP
//! is persistent (HTTP/1.1 keep-alive with a per-connection request
//! cap), both accept loops enforce [`NetConfig::max_connections`] with
//! a typed rejection counted in `evdb_server_conns_rejected_total`,
//! and connections idle past [`NetConfig::idle_timeout`] are reaped —
//! thread and hub slot released, counted in
//! `evdb_server_conns_reaped_total`.
//!
//! ```no_run
//! use evdb_server::{NetConfig, NetServer};
//! use evdb_core::{EventServer, server::ServerConfig};
//! use std::sync::Arc;
//!
//! let engine = Arc::new(EventServer::in_memory(ServerConfig::default()).unwrap());
//! let mut net = NetServer::start(engine, NetConfig::default()).unwrap();
//! println!("tcp on {}, http on {:?}", net.tcp_addr(), net.http_addr());
//! # net.shutdown();
//! ```
//!
//! [`EventServer`]: evdb_core::EventServer
//! [`Registry`]: evdb_obs::Registry

pub mod frame;
pub mod hub;
pub mod http;
mod outbox;
pub mod protocol;
pub mod session;
pub mod tcp;

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use evdb_core::pump::{spawn_pump, PumpHandle};
use evdb_core::EventServer;

use crate::hub::{Hub, ServerMetrics};

/// Network-layer configuration (the engine itself is configured via
/// [`ServerConfig`](evdb_core::server::ServerConfig)).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// TCP line-protocol bind address; `:0` picks an ephemeral port.
    pub tcp_addr: String,
    /// HTTP bind address; `None` disables the HTTP frontend.
    pub http_addr: Option<String>,
    /// Per-session outbound buffer (frames queued per connection before
    /// subscription pushes are shed for that subscriber).
    pub session_buffer: usize,
    /// Spawn a background pump with this maintenance tick; `None`
    /// means the server only pumps on explicit `PUMP` / `POST /pump`
    /// requests (the deterministic mode the golden-transcript tests
    /// rely on). With a pump attached, connections evaluate what they
    /// stage themselves and the pump is woken for the rest (trigger
    /// captures), so this is not a latency floor: it is the
    /// longest a journal-mined or query-poll capture, a lapsed queue
    /// visibility timeout or history compaction waits for the pump.
    pub pump_interval: Option<Duration>,
    /// Hard cap on concurrently open connections, shared across both
    /// frontends. An over-cap TCP connect is answered with a typed
    /// `ERR overloaded …` frame and closed; an over-cap HTTP connect
    /// gets `503`. Both are counted in
    /// `evdb_server_conns_rejected_total` — never silently dropped.
    pub max_connections: usize,
    /// Per-connection idle deadline: a connection with no traffic in
    /// either direction for this long is closed by the server (TCP
    /// peers get an `ERR idle …` frame first), releasing its thread
    /// and hub slot. Also bounds how long one HTTP request may take to
    /// arrive, so a drip-feeding peer cannot pin a thread. `None`
    /// disables reaping.
    pub idle_timeout: Option<Duration>,
    /// Requests served per HTTP keep-alive connection before the
    /// server closes it (`Connection: close` on the final response).
    pub http_max_requests: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            tcp_addr: "127.0.0.1:0".into(),
            http_addr: Some("127.0.0.1:0".into()),
            session_buffer: 1024,
            pump_interval: Some(Duration::from_millis(1)),
            max_connections: 1024,
            idle_timeout: Some(Duration::from_secs(60)),
            http_max_requests: 1000,
        }
    }
}

/// A running network server: both listeners plus the optional pump.
/// Dropping it (or calling [`shutdown`](NetServer::shutdown)) stops the
/// accept loops and the pump; connection threads notice the stop flag
/// within one read tick and exit on their own.
pub struct NetServer {
    engine: Arc<EventServer>,
    hub: Arc<Hub>,
    metrics: Arc<ServerMetrics>,
    stop: Arc<AtomicBool>,
    tcp_addr: SocketAddr,
    http_addr: Option<SocketAddr>,
    /// Each accept loop with the address that reaches its listener.
    accept_threads: Vec<(SocketAddr, JoinHandle<()>)>,
    _pump: Option<PumpHandle>,
}

impl NetServer {
    /// Bind the frontends and start serving `engine`.
    pub fn start(engine: Arc<EventServer>, config: NetConfig) -> std::io::Result<NetServer> {
        let hub = Hub::new();
        let metrics = Arc::new(ServerMetrics::bind(engine.registry(), &hub));
        hub.set_metrics(Arc::clone(&metrics));
        // Query updates are only buffered per row; the thread that ran
        // the batch sends them when the engine says the batch is over.
        let flusher = Arc::clone(&hub);
        engine.on_batch_end(Arc::new(move || flusher.flush_outboxes()));
        let stop = Arc::new(AtomicBool::new(false));
        let session_ids = Arc::new(AtomicU64::new(1));

        let mut accept_threads = Vec::new();
        let (tcp_addr, tcp_thread) = tcp::spawn_listener(
            tcp::TcpFrontend {
                engine: Arc::clone(&engine),
                hub: Arc::clone(&hub),
                metrics: Arc::clone(&metrics),
                stop: Arc::clone(&stop),
                session_ids: Arc::clone(&session_ids),
                session_buffer: config.session_buffer,
                max_connections: config.max_connections,
                idle_timeout: config.idle_timeout,
            },
            &config.tcp_addr,
        )?;
        accept_threads.push((tcp_addr, tcp_thread));

        let mut http_addr = None;
        if let Some(addr) = &config.http_addr {
            let (bound, http_thread) = http::spawn_listener(
                http::HttpFrontend {
                    engine: Arc::clone(&engine),
                    hub: Arc::clone(&hub),
                    metrics: Arc::clone(&metrics),
                    stop: Arc::clone(&stop),
                    session_ids: Arc::clone(&session_ids),
                    session_buffer: config.session_buffer,
                    max_connections: config.max_connections,
                    idle_timeout: config.idle_timeout,
                    max_requests: config.http_max_requests,
                },
                addr,
            )?;
            http_addr = Some(bound);
            accept_threads.push((bound, http_thread));
        }

        let pump = config
            .pump_interval
            .map(|interval| spawn_pump(&engine, interval));

        Ok(NetServer {
            engine,
            hub,
            metrics,
            stop,
            tcp_addr,
            http_addr,
            accept_threads,
            _pump: pump,
        })
    }

    /// The bound TCP address (ephemeral port resolved).
    pub fn tcp_addr(&self) -> SocketAddr {
        self.tcp_addr
    }

    /// The bound HTTP address, if the HTTP frontend is enabled.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Arc<EventServer> {
        &self.engine
    }

    /// The fan-out hub (exposed for tests and experiments).
    pub fn hub(&self) -> &Arc<Hub> {
        &self.hub
    }

    /// The server-layer counters.
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// Stop accepting, stop the pump, and wait for the accept loops.
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for (addr, handle) in self.accept_threads.drain(..) {
            // The loop blocks in `accept`: one connect of our own makes
            // it return and see the flag. If even that cannot be had the
            // thread is left detached rather than joined forever; it
            // exits on the next connect from anyone.
            if TcpStream::connect_timeout(&reachable(addr), Duration::from_secs(1)).is_ok() {
                let _ = handle.join();
            }
        }
        self._pump = None; // drop stops the pump thread
    }
}

/// The address a local connect uses for a listener bound to `addr`: a
/// wildcard bind is reached over loopback.
fn reachable(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evdb_core::server::ServerConfig;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    #[test]
    fn start_serve_ping_shutdown() {
        let engine = Arc::new(EventServer::in_memory(ServerConfig::default()).unwrap());
        let mut net = NetServer::start(
            engine,
            NetConfig {
                pump_interval: None,
                ..Default::default()
            },
        )
        .unwrap();
        let mut conn = TcpStream::connect(net.tcp_addr()).unwrap();
        conn.write_all(b"PING\n").unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "PONG\n");
        net.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let engine = Arc::new(EventServer::in_memory(ServerConfig::default()).unwrap());
        let mut net = NetServer::start(engine, NetConfig::default()).unwrap();
        net.shutdown();
        net.shutdown();
        drop(net);
    }
}
