//! The event envelope.
//!
//! An [`Event`] is a record plus provenance: a unique id, the source that
//! produced it (table name, queue, external feed), its event time, and a
//! shared schema describing the payload. Everything downstream — rule
//! matching, continuous queries, analytics models, notification routing —
//! consumes this one shape.

use std::fmt;
use std::sync::Arc;

use crate::record::Record;
use crate::schema::Schema;
use crate::time::TimestampMs;
use crate::trace::Trace;
use crate::value::Value;

/// Unique id of an event within one EventDB instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u64);

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evt#{}", self.0)
    }
}

/// A typed, timestamped, attributed event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Unique id (monotonic per instance).
    pub id: EventId,
    /// Name of the producing source: a table, a queue, a stream, a feed.
    pub source: Arc<str>,
    /// Event time (not arrival time) in milliseconds.
    pub timestamp: TimestampMs,
    /// The payload tuple.
    pub payload: Record,
    /// Schema of the payload.
    pub schema: Arc<Schema>,
    /// Pipeline trace: id + per-stage timestamps. Events converted from
    /// captured changes inherit the change's trace; directly constructed
    /// events start with an unstamped trace keyed by the event id.
    pub trace: Trace,
    /// True when this event *withdraws* a previously emitted event with
    /// the same payload (a retraction delta). Plain events are inserts.
    /// Speculative continuous queries emit retraction/insert pairs when
    /// late data revises an already-emitted result; subscribers compact
    /// the delta stream to the final answer.
    pub retraction: bool,
    /// True when the engine minted this event's id itself (capture's id
    /// generator), so the event cannot be a redelivery: the replay-dedup
    /// window skips it (DESIGN.md D12). [`Event::new`] leaves it false.
    pub minted: bool,
}

impl Event {
    /// Construct an event.
    pub fn new(
        id: EventId,
        source: impl Into<Arc<str>>,
        timestamp: TimestampMs,
        payload: Record,
        schema: Arc<Schema>,
    ) -> Event {
        Event {
            id,
            source: source.into(),
            timestamp,
            payload,
            schema,
            trace: Trace::new(id.0),
            retraction: false,
            minted: false,
        }
    }

    /// Is this event a retraction delta?
    pub fn is_retraction(&self) -> bool {
        self.retraction
    }

    /// Clone of this event marked as a retraction. The payload is kept
    /// byte-identical so a subscriber can cancel it against the original
    /// insert by value.
    pub fn to_retraction(&self) -> Event {
        let mut e = self.clone();
        e.retraction = true;
        e
    }

    /// Payload field by name (None if absent from the schema).
    pub fn get(&self, field: &str) -> Option<&Value> {
        self.schema.get(&self.payload, field)
    }

    /// Clone with a different payload/schema, preserving identity fields.
    /// Used by projection operators that transform the tuple but keep the
    /// event's time and provenance.
    pub fn with_payload(&self, payload: Record, schema: Arc<Schema>) -> Event {
        Event {
            id: self.id,
            source: Arc::clone(&self.source),
            timestamp: self.timestamp,
            payload,
            schema,
            trace: self.trace,
            retraction: self.retraction,
            minted: self.minted,
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}@{} {}{}",
            self.id,
            self.source,
            self.timestamp,
            self.payload,
            if self.retraction { " (retract)" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    #[test]
    fn field_access_and_display() {
        let schema = Schema::of(&[("sym", DataType::Str), ("px", DataType::Float)]);
        let e = Event::new(
            EventId(1),
            "ticks",
            TimestampMs(42),
            Record::from_iter([Value::from("IBM"), Value::Float(101.5)]),
            schema,
        );
        assert_eq!(e.get("sym"), Some(&Value::from("IBM")));
        assert_eq!(e.get("ghost"), None);
        assert_eq!(e.to_string(), "evt#1 ticks@42ms ['IBM', 101.5]");
    }

    #[test]
    fn with_payload_preserves_identity() {
        let s1 = Schema::of(&[("a", DataType::Int)]);
        let s2 = Schema::of(&[("b", DataType::Int)]);
        let e = Event::new(
            EventId(9),
            "src",
            TimestampMs(5),
            Record::from_iter([1i64]),
            s1,
        );
        let e2 = e.with_payload(Record::from_iter([2i64]), s2);
        assert_eq!(e2.id, e.id);
        assert_eq!(e2.timestamp, e.timestamp);
        assert_eq!(e2.source, e.source);
        assert_eq!(e2.get("b"), Some(&Value::Int(2)));
    }

    #[test]
    fn retraction_marking() {
        let s = Schema::of(&[("a", DataType::Int)]);
        let e = Event::new(
            EventId(3),
            "src",
            TimestampMs(7),
            Record::from_iter([1i64]),
            Arc::clone(&s),
        );
        assert!(!e.is_retraction());
        let r = e.to_retraction();
        assert!(r.is_retraction());
        assert_eq!(r.payload, e.payload);
        assert!(r.to_string().ends_with("(retract)"));
        // The flag survives payload rewrites (projection operators).
        assert!(r.with_payload(Record::from_iter([2i64]), s).is_retraction());
    }
}
