//! The `evdb-server` binary: an [`EventServer`] behind TCP + HTTP.
//!
//! ```text
//! evdb-server [--dir PATH] [--tcp ADDR] [--http ADDR|none]
//!             [--capacity N] [--policy block|reject|shed]
//!             [--pump-ms MS|none] [--buffer N]
//!             [--max-conns N] [--idle-timeout MS|none]
//!             [--http-max-requests N]
//! ```
//!
//! Defaults: in-memory engine, TCP on 127.0.0.1:7070, HTTP on
//! 127.0.0.1:7071, capacity 65536, policy block, background pump with a
//! 1 ms maintenance tick, 1024 connections, 60 s idle deadline, 1000
//! requests per HTTP keep-alive connection.
//!
//! `--pump-ms` is the pump's maintenance tick — the maximum staleness of
//! pull-based captures (journal mining, query polls), queue
//! visibility-timeout reaping and history compaction. Staged events
//! (`INGEST`, trigger captures) wake the pump themselves and do not wait
//! for it. `none` disables the background pump (explicit `PUMP` only).

use std::sync::Arc;
use std::time::Duration;

use evdb_core::server::ServerConfig;
use evdb_core::{EventServer, OverloadPolicy};
use evdb_server::{NetConfig, NetServer};

fn usage() -> ! {
    eprintln!(
        "usage: evdb-server [--dir PATH] [--tcp ADDR] [--http ADDR|none] \
         [--capacity N] [--policy block|reject|shed] [--pump-ms MS|none] [--buffer N] \
         [--max-conns N] [--idle-timeout MS|none] [--http-max-requests N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut dir: Option<String> = None;
    let mut tcp = "127.0.0.1:7070".to_string();
    let mut http: Option<String> = Some("127.0.0.1:7071".to_string());
    let mut capacity = 65_536usize;
    let mut policy = OverloadPolicy::Block;
    let mut pump_interval = Some(Duration::from_millis(1));
    let mut buffer = 1024usize;
    let defaults = NetConfig::default();
    let mut max_conns = defaults.max_connections;
    let mut idle_timeout = defaults.idle_timeout;
    let mut http_max_requests = defaults.http_max_requests;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--dir" => dir = Some(value()),
            "--tcp" => tcp = value(),
            "--http" => {
                let v = value();
                http = if v == "none" { None } else { Some(v) };
            }
            "--capacity" => capacity = value().parse().unwrap_or_else(|_| usage()),
            "--policy" => {
                policy = match value().as_str() {
                    "block" => OverloadPolicy::Block,
                    "reject" => OverloadPolicy::Reject,
                    "shed" => OverloadPolicy::ShedLowest,
                    _ => usage(),
                }
            }
            "--pump-ms" => {
                let v = value();
                pump_interval = if v == "none" {
                    None
                } else {
                    Some(Duration::from_millis(v.parse().unwrap_or_else(|_| usage())))
                };
            }
            "--buffer" => buffer = value().parse().unwrap_or_else(|_| usage()),
            "--max-conns" => max_conns = value().parse().unwrap_or_else(|_| usage()),
            "--idle-timeout" => {
                let v = value();
                idle_timeout = if v == "none" {
                    None
                } else {
                    Some(Duration::from_millis(v.parse().unwrap_or_else(|_| usage())))
                };
            }
            "--http-max-requests" => {
                http_max_requests = value().parse().unwrap_or_else(|_| usage());
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    let config = ServerConfig {
        ingest_capacity: capacity,
        overload: policy,
        ..Default::default()
    };
    let engine = match &dir {
        Some(path) => EventServer::open(path, config),
        None => EventServer::in_memory(config),
    };
    let engine = match engine {
        Ok(e) => Arc::new(e),
        Err(e) => {
            eprintln!("evdb-server: failed to open engine: {e}");
            std::process::exit(1);
        }
    };

    let net = NetServer::start(
        engine,
        NetConfig {
            tcp_addr: tcp,
            http_addr: http,
            session_buffer: buffer,
            pump_interval,
            max_connections: max_conns,
            idle_timeout,
            http_max_requests,
        },
    );
    let net = match net {
        Ok(n) => n,
        Err(e) => {
            eprintln!("evdb-server: failed to bind: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "evdb-server: tcp {} http {} (dir: {})",
        net.tcp_addr(),
        net.http_addr().map_or("disabled".into(), |a| a.to_string()),
        dir.as_deref().unwrap_or("in-memory"),
    );

    // Serve until killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
