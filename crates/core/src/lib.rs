//! # evdb-core
//!
//! The EventDB facade: one [`EventServer`] that composes the storage
//! engine, staging areas, rules broker, continuous-query runtime and
//! analytics detectors into the event-driven architecture of Chandy &
//! Gawlick's tutorial.
//!
//! The server is **pump-driven**: captures buffer change events, and each
//! [`EventServer::pump`] drains them through the evaluation pipeline
//! (streams → continuous queries → detectors → notifications). This keeps
//! every experiment deterministic under a simulated clock; callers that
//! want liveness call `pump` from their own loop or timer thread.
//!
//! * [`server`] — the facade: construction, wiring and the registration
//!   API (tables, capture mechanisms, streams, CQL queries, rules,
//!   detectors, queues, history).
//! * The cycle, one module per stage, each owning its locks and handing
//!   the next a typed value (DESIGN.md §6): `capture` (capture tasks and
//!   the admission buffer → [`Drained`]), `evaluate` (history, queries,
//!   rules, detectors → notifications + first error), [`notify`] (the
//!   **VIRT** filter — "Valuable Information at the Right Time", §1 —
//!   and the end-of-batch hooks), and `cycle` (the gate, one cycle at a
//!   time, and the entry points that run it).
//! * [`pump`] — the background pump thread: parks on the work signal,
//!   runs the one cycle when work is staged and on the maintenance tick.
//! * [`admission`] — the bounded staged-ingest buffer, its
//!   [`OverloadPolicy`] (block / reject / shed-lowest) and the work signal
//!   that wakes the pump.
//! * [`history`] — the per-stream columnar historical event store
//!   (DESIGN.md D14): pruned historical queries, pump-driven compaction,
//!   `REPLAY` back through the CQ runtime.
//! * [`security`] — principals, grants and the audit trail.
//! * [`metrics`] — counters and latency histograms for the harness.

pub mod admission;
mod capture;
mod cycle;
mod evaluate;
pub mod history;
pub mod metrics;
pub mod notify;
pub mod pump;
pub mod security;
pub mod server;

pub use admission::{AdmissionControl, OverloadPolicy};
pub use history::{History, HistoryConfig};
pub use metrics::{Metrics, MetricsSnapshot};
pub use notify::{Notification, NotificationCenter, VirtPolicy};
pub use pump::{spawn_pump, PumpHandle};
pub use security::{AccessControl, Principal, Privilege};
pub use server::{CaptureMechanism, Drained, EventServer};
