//! # evdb-core
//!
//! The EventDB facade: one [`EventServer`] that composes the storage
//! engine, staging areas, rules broker, continuous-query runtime,
//! analytics detectors and the distribution fabric into the event-driven
//! architecture of Chandy & Gawlick's tutorial.
//!
//! The server is **pump-driven**: captures buffer change events, and each
//! [`EventServer::pump`] drains them through the evaluation pipeline
//! (streams → continuous queries → detectors → notifications). This keeps
//! every experiment deterministic under a simulated clock; callers that
//! want liveness call `pump` from their own loop or timer thread.
//!
//! * [`server`] — the facade: tables, capture mechanisms (trigger /
//!   journal / query-poll), streams, CQL queries, queues, topics,
//!   detectors, pump.
//! * [`notify`] — the notification center with the **VIRT** filter
//!   ("Valuable Information at the Right Time", §1): severity floor,
//!   per-key duplicate suppression and rate limiting against
//!   information overload.
//! * [`security`] — principals, grants and the audit trail
//!   (the "security, auditing, tracking" operational characteristic).
//! * [`metrics`] — counters and latency histograms for the harness.
//! * [`shard`] — the sharded parallel pump: partitioned multi-worker
//!   evaluation behind [`PumpMode::Sharded`], preserving per-key order.
//! * [`admission`] — the bounded staged-ingest buffer and its
//!   [`OverloadPolicy`] (block / reject / shed-lowest), the explicit
//!   overload boundary between producers and the pump — and the work
//!   signal that wakes the pump when something is staged.
//! * [`history`] — the per-stream columnar historical event store
//!   (DESIGN.md D14): zone-map-pruned historical queries, pump-driven
//!   compaction, and `REPLAY` back through the CQ runtime.

pub mod admission;
pub mod history;
pub mod metrics;
pub mod notify;
pub mod pump;
pub mod security;
pub mod server;
pub mod shard;

pub use admission::{AdmissionControl, OverloadPolicy};
pub use history::{History, HistoryConfig};
pub use metrics::{Metrics, MetricsSnapshot, ShardMetrics, ShardSnapshot};
pub use notify::{Notification, NotificationCenter, VirtPolicy};
pub use pump::{spawn_pump, spawn_pump_with, PumpHandle, PumpMode};
pub use security::{AccessControl, Principal, Privilege};
pub use server::{CaptureMechanism, Drained, EventServer};
