//! The producer side of the two embedded workloads: ticks go straight
//! into `EventServer::ingest_async`, a background pump evaluates them, and
//! results come back through engine callbacks on the pump thread. No
//! socket, so the server crate is bypassed entirely.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use evdb_core::server::ServerConfig;
use evdb_core::EventServer;
use evdb_types::{DataType, Record, Schema, TimestampMs, Value};

use crate::gen::{sym_name, Tick};
use crate::load::Target;
use crate::spec::INGEST_CAPACITY;

pub fn tick_schema() -> Arc<Schema> {
    Schema::of(&[
        ("seq", DataType::Int),
        ("sym", DataType::Str),
        ("price", DataType::Float),
        ("volume", DataType::Int),
    ])
}

pub fn tick_record(t: &Tick) -> Record {
    Record::from_iter([
        Value::Int(t.seq as i64),
        Value::from(sym_name(t.sym).as_str()),
        Value::Float(t.price),
        Value::Int(t.volume),
    ])
}

/// An in-memory engine with production defaults, except the staged
/// buffer: at 2048 events `Block` back-pressure is what closes the
/// `saturate` loop.
pub fn engine(lateness_ms: i64) -> Arc<EventServer> {
    let engine = EventServer::in_memory(ServerConfig {
        ingest_capacity: INGEST_CAPACITY,
        lateness_ms,
        ..ServerConfig::default()
    })
    .expect("engine");
    engine
        .create_stream("ticks", tick_schema())
        .expect("stream");
    Arc::new(engine)
}

pub struct EmbeddedTarget<'a> {
    pub engine: &'a EventServer,
    /// Event time and payload of tick `seq`.
    pub event: Box<dyn Fn(u64) -> (TimestampMs, Record) + 'a>,
    /// `ingest_async` calls that returned an error.
    pub refused: u64,
}

impl Target for EmbeddedTarget<'_> {
    fn send(&mut self, seq: u64) {
        let (ts, record) = (self.event)(seq);
        if self.engine.ingest_async("ticks", ts, record).is_err() {
            self.refused += 1;
        }
    }

    /// Results are delivered from inside the evaluation of their causing
    /// event, so an evaluated event has had its results observed.
    fn completed(&self) -> u64 {
        self.engine
            .metrics()
            .events_processed
            .load(Ordering::Relaxed)
    }

    fn window(&self) -> Option<u64> {
        None
    }

    fn acks_inline(&self) -> bool {
        true
    }
}
