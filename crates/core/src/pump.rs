//! Background pumping: liveness without hand-rolled loops.
//!
//! [`EventServer::pump`] is deliberately pull-driven for determinism;
//! [`spawn_pump`] starts a thread that runs the cycle whenever work is
//! staged and shuts down cleanly when its handle is stopped or dropped.
//! The thread is **event-driven**: it parks on the admission buffer's
//! work signal ([`AdmissionControl::wait_for_work`]) and a producer's
//! `admit` wakes it. `interval` is only the **maintenance tick** — the
//! longest the pump goes without a full cycle, which polls the
//! pull-based captures, reaps queue visibility timeouts and maintains
//! history; it bounds their staleness, not the latency of staged events.
//!
//! While a pump is attached, stagers stand in for it
//! ([`EventServer::stage`] + [`EventServer::run_staged`]; one cycle in
//! flight at a time, whoever runs it). The pump thread is then what is
//! left over: the tick (which leaves a stager's quiet pushes to it),
//! trigger captures (which fire inside a writer's transaction, where no
//! cycle may run), what a stager left behind after its bounded number of
//! passes, and embedders' `ingest_async`.
//!
//! [`AdmissionControl::wait_for_work`]: crate::admission::AdmissionControl::wait_for_work

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::admission::{AdmissionControl, Wake};
use crate::cycle::PumpTally;
use crate::server::EventServer;

/// Handle to a running pump thread. Stops (and joins) on drop.
pub struct PumpHandle {
    stop: Arc<AtomicBool>,
    admission: Arc<AdmissionControl>,
    tally: Arc<PumpTally>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl PumpHandle {
    /// Signal the pump to stop and wait for its thread to exit. The
    /// pump is woken, runs one last full cycle over whatever was staged
    /// before the call, and exits — it does not wait out a tick.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Pump cycles completed so far.
    pub fn cycles(&self) -> u64 {
        self.tally.cycles.load(Ordering::Relaxed)
    }

    /// Errors met so far — events whose evaluation failed, capture
    /// polls and maintenance steps that failed (counted, not fatal).
    pub fn errors(&self) -> u64 {
        self.tally.errors.load(Ordering::Relaxed)
    }

    fn shutdown(&mut self) {
        // Flag first, then wake: `wait_for_work` re-reads the flag under
        // the buffer lock before it parks, so the pump either sees it
        // or is already parked when the wake arrives.
        self.stop.store(true, Ordering::SeqCst);
        self.admission.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for PumpHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start a background thread that evaluates staged work whenever some
/// is staged and runs the full [`EventServer::pump`] cycle at least
/// every `interval`.
///
/// The thread parks until staged work is asked for, the maintenance tick
/// is due or the handle stops it, counts why it woke, and runs one cycle
/// under the gate; after the stop, one last full cycle, so a clean stop
/// leaves nothing captured but unevaluated. A tick leaves the staged
/// buffer to the stagers who pushed it quietly. Work wakes never push
/// the tick back, so continuous traffic cannot starve maintenance and
/// pull-based captures are never staler than `interval` plus one cycle.
///
/// Errors are counted on the handle and neither kill the thread nor
/// cost the failing event's batch-mates their evaluation — a poisoned
/// event must not stop the feed (callers watch [`PumpHandle::errors`]).
pub fn spawn_pump(server: &Arc<EventServer>, interval: Duration) -> PumpHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let tally = Arc::new(PumpTally::default());
    let (s, st, ta) = (Arc::clone(server), Arc::clone(&stop), Arc::clone(&tally));
    // Counted in before the thread exists, so a stager that sees the
    // handle also sees the pump attached; counted out when the thread
    // ends, however it ends.
    let attached = server.cycle.attach_pump();
    let thread = std::thread::Builder::new()
        .name("evdb-pump".into())
        .spawn(move || {
            let _attached = attached;
            // When maintenance last ran; `None` before the first cycle.
            let mut last_maintenance: Option<Instant> = None;
            let until_tick = |last: Option<Instant>| {
                last.map_or(Duration::ZERO, |t| interval.saturating_sub(t.elapsed()))
            };
            loop {
                let cause = s.admission().wait_for_work(until_tick(last_maintenance), &st);
                let stopping = cause == Wake::Stop;
                let maintenance = stopping || until_tick(last_maintenance).is_zero();
                if maintenance {
                    last_maintenance = Some(Instant::now());
                }
                s.cycle.woke(cause, maintenance);
                let (_, errors, _) = s.run_cycle(maintenance, cause != Wake::Tick);
                s.cycle.count(Some(&ta), 1, errors);
                if stopping {
                    break;
                }
            }
        })
        .expect("spawn pump thread");
    PumpHandle {
        stop,
        admission: Arc::clone(server.admission()),
        tally,
        thread: Some(thread),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{CaptureMechanism, ServerConfig};
    use evdb_types::{DataType, Record, Schema, Value};

    fn journal_server() -> Arc<EventServer> {
        let server = Arc::new(EventServer::in_memory(ServerConfig::default()).unwrap());
        server
            .db()
            .create_table(
                "t",
                Schema::of(&[("id", DataType::Int), ("v", DataType::Float)]),
                "id",
            )
            .unwrap();
        let stream = server
            .capture_table("t", CaptureMechanism::Journal)
            .unwrap();
        server
            .add_alert_rule("any", &stream, "TRUE", 1.0, None)
            .unwrap();
        server
    }

    #[test]
    fn background_pump_processes_changes() {
        let server = journal_server();
        let handle = spawn_pump(&server, Duration::from_millis(5));
        for i in 0..20 {
            server
                .db()
                .insert(
                    "t",
                    Record::from_iter([Value::Int(i), Value::Float(i as f64)]),
                )
                .unwrap();
        }
        // Wait (bounded) for the pump to pick everything up.
        for _ in 0..400 {
            if server.metrics().snapshot().events_captured >= 20 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let cycles = handle.cycles();
        handle.stop();
        assert!(cycles > 0);
        assert_eq!(server.metrics().snapshot().events_captured, 20);
        // VIRT suppression: "any" rule has one key, so only the first
        // notification necessarily lands; captured count is the check.
    }

    /// Exact accounting across the stop: every mined change is captured
    /// and evaluated once, nothing is left behind, nothing errors.
    #[test]
    fn sharded_pump_processes_changes() {
        let server = journal_server();
        let handle = spawn_pump(&server, Duration::from_millis(5));
        for i in 0..20 {
            server
                .db()
                .insert(
                    "t",
                    Record::from_iter([Value::Int(i), Value::Float(i as f64)]),
                )
                .unwrap();
        }
        for _ in 0..400 {
            if server.metrics().snapshot().events_processed >= 20 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(handle.errors(), 0);
        handle.stop();
        let snap = server.metrics().snapshot();
        assert_eq!(snap.events_captured, 20);
        assert_eq!(snap.events_processed, 20);
        assert_eq!(server.admission().depth(), 0);
        // The final cycle drained everything: a by-hand pump finds nothing.
        assert_eq!(server.pump().unwrap().captured, 0);
    }

    #[test]
    fn handle_drop_stops_thread() {
        let server = Arc::new(EventServer::in_memory(ServerConfig::default()).unwrap());
        let handle = spawn_pump(&server, Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(10));
        drop(handle); // must not hang
    }
}
