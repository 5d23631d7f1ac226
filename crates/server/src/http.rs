//! The HTTP/1.1 frontend: ingest, query reads, the Prometheus-style
//! `/metrics` exposition, and a Server-Sent-Events subscription stream.
//!
//! Routes:
//!
//! * `POST /ingest/<stream>` — body is one event per line,
//!   `<ts-ms> <v1>,<v2>,...` (the TCP `INGEST` payload without the
//!   stream). Events are staged through admission control; the reply
//!   reports `staged=<n>`. A full buffer under `Reject` maps to
//!   `503 Service Unavailable` with the `ERR overloaded …` body, after
//!   the lines already staged.
//! * `GET /query/<name>` — the query's materialized rows, one per line
//!   (its newest [`VIEW_ROWS`](crate::hub::VIEW_ROWS); TCP `GET` reports
//!   how many were evicted).
//! * `GET /metrics` — exactly [`Registry::render`]: the in-process and
//!   over-the-wire expositions are byte-identical modulo sample values
//!   (pinned by `tests/server_metrics.rs`).
//! * `GET /subscribe/<name>` — `text/event-stream`; each query delta is
//!   one `data: <name> +|- <row>` event (`-` marks a retraction).
//! * `POST /pump` — drain the staged buffer once (deterministic-test
//!   hook, mirroring the TCP `PUMP` command).
//!
//! Connections are persistent: HTTP/1.1 requests are served in a
//! per-connection loop until the client sends `Connection: close`
//! (or speaks HTTP/1.0 without `Connection: keep-alive`), the
//! per-connection request cap is reached, or the idle deadline passes
//! with no next request — so `curl`, Prometheus scrapes, and polling
//! monitors reuse one socket instead of paying a TCP handshake per
//! request. Responses carry `Connection: keep-alive` and exact
//! `Content-Length` framing while the loop continues, `Connection:
//! close` on the final response. The request head is bounded
//! ([`MAX_HEAD_BYTES`]/[`MAX_HEAD_LINES`]) and must arrive within the
//! idle deadline, so a drip-feeding peer cannot hold a thread or grow
//! a buffer without bound. SSE subscriptions take the connection over
//! and end it. Still deliberately minimal: no chunked requests, no
//! pipelining guarantees beyond strict in-order service.
//!
//! [`Registry::render`]: evdb_obs::Registry::render

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use evdb_core::EventServer;
use evdb_types::{Error, TimestampMs};

use crate::hub::{burst, Hub, Outbound, ServerMetrics};
use crate::protocol::parse_record;

/// Cap on an HTTP request body (matches the frame cap).
const MAX_BODY: usize = crate::frame::MAX_FRAME;

/// Cap on one request head (request line + headers, bytes). The frame
/// decoder bounds its headers with `MAX_HEADER`; this is the HTTP
/// equivalent — past it the connection is answered `431` and dropped.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Cap on header line count per request, same contract.
pub const MAX_HEAD_LINES: usize = 64;

/// Socket read timeout: how often a blocked read re-checks the stop
/// flag and the request deadline.
const HTTP_TICK: Duration = Duration::from_millis(50);

/// Write timeout when no idle deadline is configured (a dead peer must
/// not block a response write forever).
const DEFAULT_WRITE_TIMEOUT: Duration = Duration::from_secs(30);

pub(crate) struct HttpFrontend {
    pub engine: Arc<EventServer>,
    pub hub: Arc<Hub>,
    pub metrics: Arc<ServerMetrics>,
    pub stop: Arc<AtomicBool>,
    pub session_ids: Arc<AtomicU64>,
    pub session_buffer: usize,
    /// Cap on live connections (shared with the TCP frontend).
    pub max_connections: usize,
    /// Deadline for the next request to arrive (and for one request to
    /// finish arriving).
    pub idle_timeout: Option<Duration>,
    /// Requests served per keep-alive connection before `Connection:
    /// close`.
    pub max_requests: u64,
}

pub(crate) fn spawn_listener(
    frontend: HttpFrontend,
    addr: &str,
) -> std::io::Result<(SocketAddr, std::thread::JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let handle = std::thread::Builder::new()
        .name("evdb-http-accept".into())
        .spawn(move || accept_loop(listener, frontend))?;
    Ok((local, handle))
}

/// Refuse an over-cap connect with a 503 (no request read — the
/// rejection must not cost a parse) and close.
fn reject_over_cap(stream: TcpStream, max: usize) {
    let mut s = stream;
    let _ = s.set_write_timeout(Some(Duration::from_secs(1)));
    let body = format!("ERR overloaded connection limit ({max}) reached\n");
    let head = format!(
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = s
        .write_all(head.as_bytes())
        .and_then(|()| s.write_all(body.as_bytes()))
        .and_then(|()| s.flush());
    let _ = s.shutdown(std::net::Shutdown::Both);
}

/// Blocks in `accept`; `NetServer::shutdown` raises `stop` and then
/// connects once to unblock it.
fn accept_loop(listener: TcpListener, frontend: HttpFrontend) {
    while !frontend.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if frontend.stop.load(Ordering::SeqCst) {
                    break;
                }
                if !frontend.hub.try_admit_connection(frontend.max_connections) {
                    frontend.metrics.conns_rejected.inc();
                    reject_over_cap(stream, frontend.max_connections);
                    continue;
                }
                frontend.metrics.connections.inc();
                let engine = Arc::clone(&frontend.engine);
                let hub = Arc::clone(&frontend.hub);
                let metrics = Arc::clone(&frontend.metrics);
                let stop = Arc::clone(&frontend.stop);
                let session_id = frontend.session_ids.fetch_add(1, Ordering::Relaxed);
                let buffer = frontend.session_buffer;
                let idle_timeout = frontend.idle_timeout;
                let max_requests = frontend.max_requests;
                let spawned = std::thread::Builder::new()
                    .name(format!("evdb-http-{session_id}"))
                    .spawn(move || {
                        serve_connection(
                            stream, session_id, engine, &hub, metrics, stop, buffer,
                            idle_timeout, max_requests,
                        );
                        hub.release_connection();
                    });
                if spawned.is_err() {
                    // Handler never ran: undo the slot claim, or the
                    // active-connections gauge leaks permanently.
                    frontend.hub.release_connection();
                }
            }
            // Out of descriptors, or the peer reset before we got to it:
            // pause so a persistent failure cannot spin the thread.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

struct HttpRequest {
    method: String,
    path: String,
    body: Vec<u8>,
    /// The client's connection preference: `Connection: keep-alive`
    /// (the HTTP/1.1 default) vs `close` (the HTTP/1.0 default).
    keep_alive: bool,
}

/// Why [`read_request`] came back without a request.
enum ReadOutcome {
    Request(HttpRequest),
    /// Peer closed (EOF) — the normal end of a keep-alive connection.
    Closed,
    /// No complete request within the idle deadline (covers both pure
    /// idleness between requests and a drip-fed, never-finishing one).
    TimedOut,
    /// Request head exceeded [`MAX_HEAD_BYTES`]/[`MAX_HEAD_LINES`].
    TooLarge,
    /// Unparseable head or oversize/short body: answered `400`, then
    /// the connection closes.
    Malformed,
}

enum LineResult {
    Line(String),
    Eof,
    TimedOut,
    TooLarge,
    Failed,
}

/// Read one `\n`-terminated line through the buffered reader,
/// tolerating read-timeout ticks (nothing is lost across ticks — bytes
/// accumulate here, not in an abandoned partial read). `head_bytes`
/// accrues toward [`MAX_HEAD_BYTES`].
fn read_line_bounded(
    reader: &mut BufReader<TcpStream>,
    deadline: Option<Instant>,
    stop: &AtomicBool,
    head_bytes: &mut usize,
) -> LineResult {
    let mut line: Vec<u8> = Vec::new();
    loop {
        match reader.fill_buf() {
            Ok([]) => return if line.is_empty() { LineResult::Eof } else { LineResult::Failed },
            Ok(buf) => {
                let (take, done) = match buf.iter().position(|&b| b == b'\n') {
                    Some(pos) => (pos + 1, true),
                    None => (buf.len(), false),
                };
                *head_bytes += take;
                if *head_bytes > MAX_HEAD_BYTES {
                    return LineResult::TooLarge;
                }
                line.extend_from_slice(&buf[..take]);
                reader.consume(take);
                if done {
                    while matches!(line.last(), Some(b'\n' | b'\r')) {
                        line.pop();
                    }
                    return LineResult::Line(String::from_utf8_lossy(&line).into_owned());
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    return LineResult::TimedOut;
                }
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return LineResult::TimedOut;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return LineResult::Failed,
        }
    }
}

/// Read exactly `len` body bytes, tolerating timeout ticks up to the
/// deadline.
fn read_body(
    reader: &mut BufReader<TcpStream>,
    len: usize,
    deadline: Option<Instant>,
    stop: &AtomicBool,
) -> Option<Vec<u8>> {
    let mut body = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match reader.read(&mut body[filled..]) {
            Ok(0) => return None,
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    return None;
                }
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return None;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
    Some(body)
}

/// Read one request head + body off the persistent connection. The
/// whole request must arrive within `idle_timeout` of this call — the
/// same deadline that bounds inter-request idleness.
fn read_request(
    reader: &mut BufReader<TcpStream>,
    idle_timeout: Option<Duration>,
    stop: &AtomicBool,
) -> ReadOutcome {
    let deadline = idle_timeout.map(|t| Instant::now() + t);
    let mut head_bytes = 0usize;
    let request_line = match read_line_bounded(reader, deadline, stop, &mut head_bytes) {
        LineResult::Line(l) => l,
        LineResult::Eof => return ReadOutcome::Closed,
        LineResult::TimedOut => return ReadOutcome::TimedOut,
        LineResult::TooLarge => return ReadOutcome::TooLarge,
        LineResult::Failed => return ReadOutcome::Malformed,
    };
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return ReadOutcome::Malformed;
    };
    let method = method.to_string();
    let path = path.to_string();
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 (and anything older or
    // absent) to close; a Connection header overrides either way.
    let mut keep_alive = parts.next() == Some("HTTP/1.1");
    let mut content_length = 0usize;
    let mut lines = 0usize;
    loop {
        let line = match read_line_bounded(reader, deadline, stop, &mut head_bytes) {
            LineResult::Line(l) => l,
            LineResult::Eof | LineResult::Failed => return ReadOutcome::Malformed,
            LineResult::TimedOut => return ReadOutcome::TimedOut,
            LineResult::TooLarge => return ReadOutcome::TooLarge,
        };
        if line.is_empty() {
            break;
        }
        lines += 1;
        if lines > MAX_HEAD_LINES {
            return ReadOutcome::TooLarge;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = match value.trim().parse() {
                    Ok(n) => n,
                    Err(_) => return ReadOutcome::Malformed,
                };
            } else if name.eq_ignore_ascii_case("connection") {
                let value = value.trim();
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        }
    }
    if content_length > MAX_BODY {
        return ReadOutcome::Malformed;
    }
    let Some(body) = read_body(reader, content_length, deadline, stop) else {
        return ReadOutcome::Malformed;
    };
    ReadOutcome::Request(HttpRequest {
        method,
        path,
        body,
        keep_alive,
    })
}

fn status_line(code: u16) -> &'static str {
    match code {
        200 => "200 OK",
        400 => "400 Bad Request",
        403 => "403 Forbidden",
        404 => "404 Not Found",
        405 => "405 Method Not Allowed",
        431 => "431 Request Header Fields Too Large",
        503 => "503 Service Unavailable",
        _ => "500 Internal Server Error",
    }
}

/// Map an engine error onto an HTTP status.
fn status_of(e: &Error) -> u16 {
    match e.kind() {
        "overloaded" => 503,
        "not_found" => 404,
        "unauthorized" => 403,
        "parse" | "type" | "schema" | "invalid" | "already_exists" => 400,
        _ => 500,
    }
}

fn respond(stream: &mut TcpStream, code: u16, content_type: &str, body: &str, keep_alive: bool) {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let head = format!(
        "HTTP/1.1 {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        status_line(code),
        body.len()
    );
    let _ = stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .and_then(|()| stream.flush());
}

/// The per-connection request loop (HTTP/1.1 keep-alive).
#[allow(clippy::too_many_arguments)]
fn serve_connection(
    mut stream: TcpStream,
    session_id: u64,
    engine: Arc<EventServer>,
    hub: &Arc<Hub>,
    metrics: Arc<ServerMetrics>,
    stop: Arc<AtomicBool>,
    buffer: usize,
    idle_timeout: Option<Duration>,
    max_requests: u64,
) {
    let _ = stream.set_read_timeout(Some(HTTP_TICK));
    let _ = stream.set_write_timeout(Some(idle_timeout.unwrap_or(DEFAULT_WRITE_TIMEOUT)));
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    // One buffered reader for the connection's whole life: bytes of a
    // pipelined next request buffered past a response boundary must not
    // be lost between loop iterations.
    let mut reader = BufReader::new(read_half);
    let mut served = 0u64;
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let req = match read_request(&mut reader, idle_timeout, &stop) {
            ReadOutcome::Request(req) => req,
            ReadOutcome::Closed => break,
            ReadOutcome::Malformed => {
                // Typed, never silent: an unparseable head or truncated
                // body gets a 400 before the close.
                metrics.errors.inc();
                respond(
                    &mut stream,
                    400,
                    "text/plain",
                    "ERR proto malformed request\n",
                    false,
                );
                break;
            }
            ReadOutcome::TimedOut => {
                // Idle past the deadline (or drip-fed past it): reap.
                // Only count a reap when real idleness killed the
                // connection, not a server shutdown tick.
                if !stop.load(Ordering::SeqCst) {
                    metrics.conns_reaped.inc();
                }
                break;
            }
            ReadOutcome::TooLarge => {
                metrics.errors.inc();
                respond(
                    &mut stream,
                    431,
                    "text/plain",
                    &format!(
                        "ERR proto request head exceeds {MAX_HEAD_BYTES} bytes / {MAX_HEAD_LINES} lines\n"
                    ),
                    false,
                );
                break;
            }
        };
        served += 1;
        metrics.http_requests.inc();
        // keep-alive unless the client opted out, the per-connection
        // request budget is spent, or the server is stopping.
        let keep_alive =
            req.keep_alive && served < max_requests && !stop.load(Ordering::SeqCst);
        let again = handle_request(
            &mut stream, &req, session_id, &engine, hub, &metrics, &stop, buffer, keep_alive,
        );
        if !again || !keep_alive {
            break;
        }
    }
}

/// Dispatch one parsed request. Returns whether the connection may
/// serve another request (`false` once an SSE stream has consumed it).
#[allow(clippy::too_many_arguments)]
fn handle_request(
    stream: &mut TcpStream,
    req: &HttpRequest,
    session_id: u64,
    engine: &Arc<EventServer>,
    hub: &Arc<Hub>,
    metrics: &ServerMetrics,
    stop: &AtomicBool,
    buffer: usize,
    keep_alive: bool,
) -> bool {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["metrics"]) => {
            respond(
                stream,
                200,
                "text/plain; version=0.0.4",
                &engine.registry().render(),
                keep_alive,
            );
        }
        ("GET", ["query", name]) => match hub.ensure_query(engine, name) {
            Ok(()) => {
                let view = hub.rows(name).unwrap_or_default();
                let mut body = String::new();
                for row in &view.rows {
                    body.push_str(row);
                    body.push('\n');
                }
                respond(stream, 200, "text/plain", &body, keep_alive);
            }
            Err(e) => {
                metrics.errors.inc();
                respond(
                    stream,
                    status_of(&e),
                    "text/plain",
                    &format!("ERR {} {e}\n", e.kind()),
                    keep_alive,
                );
            }
        },
        ("GET", ["subscribe", name]) => {
            serve_sse(stream, session_id, engine, hub, metrics, stop, buffer, name);
            return false; // the stream consumed the connection
        }
        ("POST", ["ingest", stream_name]) => {
            let (staged, err) = ingest_body(engine, stream_name, &req.body);
            // Stage-then-run, like a TCP reader at the end of a read.
            engine.run_staged();
            match err {
                None => respond(
                    stream,
                    200,
                    "text/plain",
                    &format!("staged={staged}\n"),
                    keep_alive,
                ),
                Some(e) => {
                    metrics.errors.inc();
                    respond(
                        stream,
                        status_of(&e),
                        "text/plain",
                        &format!("staged={staged}\nERR {} {e}\n", e.kind()),
                        keep_alive,
                    );
                }
            }
        }
        ("POST", ["pump"]) => match engine.pump() {
            Ok(stats) => respond(
                stream,
                200,
                "text/plain",
                &format!(
                    "captured={} derived={} notified={}\n",
                    stats.captured, stats.derived, stats.notified
                ),
                keep_alive,
            ),
            Err(e) => {
                metrics.errors.inc();
                respond(
                    stream,
                    status_of(&e),
                    "text/plain",
                    &format!("ERR {} {e}\n", e.kind()),
                    keep_alive,
                );
            }
        },
        ("GET" | "POST", _) => {
            metrics.errors.inc();
            respond(stream, 404, "text/plain", "ERR not_found no such route\n", keep_alive);
        }
        _ => {
            metrics.errors.inc();
            respond(stream, 405, "text/plain", "ERR proto method not allowed\n", keep_alive);
        }
    }
    true
}

/// Stage each body line (`<ts-ms> <v1>,<v2>,...`); stops at the first
/// error, returning how many lines made it in.
fn ingest_body(engine: &EventServer, stream: &str, body: &[u8]) -> (u64, Option<Error>) {
    let text = String::from_utf8_lossy(body);
    let schema = match engine.runtime().stream_schema(stream) {
        Ok(s) => s,
        Err(e) => return (0, Some(e)),
    };
    let mut staged = 0u64;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (ts, values) = match line.split_once(' ') {
            Some((ts, values)) => (ts, values),
            None => return (staged, Some(Error::Schema(format!("bad ingest line '{line}'")))),
        };
        let ts: i64 = match ts.parse() {
            Ok(ts) => ts,
            Err(_) => return (staged, Some(Error::Schema(format!("bad timestamp '{ts}'")))),
        };
        let record = match parse_record(&schema, values) {
            Ok(r) => r,
            Err(e) => return (staged, Some(e)),
        };
        if let Err(e) = engine.stage(stream, TimestampMs(ts), record) {
            return (staged, Some(e));
        }
        staged += 1;
    }
    (staged, None)
}

/// The SSE loop: subscribe this connection to `name` and stream deltas
/// until the peer hangs up or the server stops. Row payloads are
/// newline-free by the protocol's rendering contract (embedded `\n` /
/// `\r` are escaped), so each delta is exactly one `data:` line and
/// event boundaries cannot be corrupted by column values.
#[allow(clippy::too_many_arguments)]
fn serve_sse(
    stream: &mut TcpStream,
    session_id: u64,
    engine: &EventServer,
    hub: &Arc<Hub>,
    metrics: &ServerMetrics,
    stop: &AtomicBool,
    buffer: usize,
    name: &str,
) {
    if let Err(e) = hub.ensure_query(engine, name) {
        metrics.errors.inc();
        respond(stream, status_of(&e), "text/plain", &format!("ERR {} {e}\n", e.kind()), false);
        return;
    }
    let head = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).and_then(|()| stream.flush()).is_err() {
        return;
    }
    let (tx, rx) = sync_channel::<Outbound>(buffer.max(1));
    hub.subscribe(name, session_id, tx);
    loop {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(first) => {
                let mut body = String::new();
                let mut open = true;
                for msg in burst(first, &rx) {
                    let Outbound::Frame(text) = msg else {
                        open = false; // Outbound::Close
                        break;
                    };
                    // `UPDATE <q> ± <row>` → `data: <q> ± <row>`.
                    let payload = text.strip_prefix("UPDATE ").unwrap_or(&text);
                    metrics.frames_tx.inc();
                    body.push_str("data: ");
                    body.push_str(payload);
                    body.push_str("\n\n");
                }
                let sent = stream.write_all(body.as_bytes()).and_then(|()| stream.flush());
                if sent.is_err() || !open {
                    break; // peer hung up, or the server closed the session
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                // Comment heartbeat doubles as a liveness probe so a
                // silently-dead peer is noticed within a tick or two.
                if stream.write_all(b": tick\n\n").and_then(|()| stream.flush()).is_err() {
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    hub.remove_session(session_id);
}
