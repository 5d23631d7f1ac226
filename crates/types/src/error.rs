//! The workspace-wide error type.
//!
//! One enum rather than per-crate error hierarchies: the subsystems compose
//! tightly (queues sit on storage, rules on expressions, the facade on
//! everything), and a single error type keeps `?` flowing across crate
//! boundaries without conversion boilerplate.

use std::fmt;
use std::io;

/// Result alias used across all EventDB crates.
pub type Result<T> = std::result::Result<T, Error>;

/// Unified EventDB error.
#[derive(Debug)]
pub enum Error {
    /// Expression or CQL text failed to parse. Carries byte offset and message.
    Parse { offset: usize, message: String },
    /// An expression or record did not type-check against a schema.
    Type(String),
    /// Schema violation: unknown field, arity mismatch, null in non-null field.
    Schema(String),
    /// Named object (table, queue, rule, stream, …) does not exist.
    NotFound(String),
    /// Named object already exists.
    AlreadyExists(String),
    /// Transaction conflict or misuse (e.g. write on a read-only txn,
    /// operating on a finished transaction).
    Transaction(String),
    /// Primary-key or unique-index violation.
    Constraint(String),
    /// WAL or table-file corruption detected during recovery or mining.
    Corruption(String),
    /// Queue-level protocol errors (ack of unknown message, consumer gone…).
    Queue(String),
    /// Delivery/propagation failure in the distribution layer.
    Delivery(String),
    /// Authorization failure (principal lacks a privilege).
    Unauthorized(String),
    /// Underlying I/O failure.
    Io(io::Error),
    /// Invalid argument or configuration.
    Invalid(String),
    /// Admission control turned the producer away: the staged ingest
    /// buffer is at capacity under `OverloadPolicy::Reject`. Retryable —
    /// producers should back off and re-offer.
    Overloaded(String),
    /// A replay cursor's history was truncated out from under it (a
    /// checkpoint discarded journal records the cursor had not yet
    /// consumed). The missing changes are only recoverable from the
    /// checkpointed state, not the log — callers must re-baseline and
    /// resync the cursor rather than continue as if nothing was lost.
    TruncatedHistory(String),
    /// A call that runs the engine's cycle came from inside that cycle
    /// (a subscriber or notification handler calling `pump()`): waiting
    /// for the cycle in flight would be waiting for itself.
    Reentrant(String),
}

impl Error {
    /// Convenience constructor for parse errors.
    pub fn parse(offset: usize, message: impl Into<String>) -> Error {
        Error::Parse {
            offset,
            message: message.into(),
        }
    }

    /// Short machine-readable category, used by the audit log.
    pub fn kind(&self) -> &'static str {
        match self {
            Error::Parse { .. } => "parse",
            Error::Type(_) => "type",
            Error::Schema(_) => "schema",
            Error::NotFound(_) => "not_found",
            Error::AlreadyExists(_) => "already_exists",
            Error::Transaction(_) => "transaction",
            Error::Constraint(_) => "constraint",
            Error::Corruption(_) => "corruption",
            Error::Queue(_) => "queue",
            Error::Delivery(_) => "delivery",
            Error::Unauthorized(_) => "unauthorized",
            Error::Io(_) => "io",
            Error::Invalid(_) => "invalid",
            Error::Overloaded(_) => "overloaded",
            Error::TruncatedHistory(_) => "truncated_history",
            Error::Reentrant(_) => "reentrant",
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse { offset, message } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            Error::Type(m) => write!(f, "type error: {m}"),
            Error::Schema(m) => write!(f, "schema error: {m}"),
            Error::NotFound(m) => write!(f, "not found: {m}"),
            Error::AlreadyExists(m) => write!(f, "already exists: {m}"),
            Error::Transaction(m) => write!(f, "transaction error: {m}"),
            Error::Constraint(m) => write!(f, "constraint violation: {m}"),
            Error::Corruption(m) => write!(f, "corruption: {m}"),
            Error::Queue(m) => write!(f, "queue error: {m}"),
            Error::Delivery(m) => write!(f, "delivery error: {m}"),
            Error::Unauthorized(m) => write!(f, "unauthorized: {m}"),
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Invalid(m) => write!(f, "invalid: {m}"),
            Error::Overloaded(m) => write!(f, "overloaded: {m}"),
            Error::TruncatedHistory(m) => write!(f, "truncated history: {m}"),
            Error::Reentrant(m) => write!(f, "reentrant call: {m}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_kind() {
        let e = Error::parse(12, "unexpected ')'");
        assert_eq!(e.kind(), "parse");
        assert_eq!(e.to_string(), "parse error at byte 12: unexpected ')'");
        let e = Error::NotFound("table orders".into());
        assert_eq!(e.kind(), "not_found");
        assert!(e.to_string().contains("orders"));
    }

    #[test]
    fn io_conversion_preserves_source() {
        let e: Error = io::Error::other("disk on fire").into();
        assert_eq!(e.kind(), "io");
        assert!(std::error::Error::source(&e).is_some());
    }
}
