//! EventDB umbrella crate: re-exports the full public API of the workspace.
//!
//! See `evdb_core` for the high-level [`evdb_core::EventServer`] facade and
//! the individual crates for each subsystem.

pub use evdb_analytics as analytics;
pub use evdb_core as core;
pub use evdb_cq as cq;
pub use evdb_expr as expr;
pub use evdb_faults as faults;
pub use evdb_obs as obs;
pub use evdb_queue as queue;
pub use evdb_server as net;
pub use evdb_rules as rules;
pub use evdb_storage as storage;
pub use evdb_types as types;
