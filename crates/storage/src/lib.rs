//! # evdb-storage
//!
//! The embedded storage engine beneath EventDB — the "commercial database"
//! substrate of Chandy & Gawlick's tutorial, reduced to the capabilities
//! event processing actually leans on:
//!
//! * **Tables** with typed schemas, a primary key and secondary indexes
//!   ([`table`], [`index`]).
//! * A **write-ahead log / journal** with checksummed binary records,
//!   configurable sync policy (per-commit fsync vs. group commit), tailing
//!   readers, and truncation on checkpoint ([`wal`]).
//! * **Transactions** — redo-only logging, in-memory undo for rollback,
//!   atomic multi-table commits ([`txn`]).
//! * **Crash recovery** — replay committed WAL records over the last
//!   checkpoint; torn trailing records are detected and ignored ([`db`]).
//!   The durable paths carry named fault sites for `evdb-faults`, so the
//!   torture harness (DESIGN.md D8, experiment E12) can crash the engine
//!   at any WAL append, checkpoint step or directory sync.
//! * A per-stream **historical event store** — a write-optimized head
//!   freezing into immutable columnar segments with per-column zone maps,
//!   policy-driven compaction, and arrival-order replay ([`columnar`],
//!   [`segment`], [`compact`]; DESIGN.md D14).
//! * The paper's three **event capture mechanisms** (§2.2.a):
//!   row-level **triggers** ([`trigger`]), **journal mining**
//!   ([`journal`]), and **query snapshots/deltas** ([`snapshot`]).
//!
//! Concurrency model: writers are serialized (one transaction commits at a
//! time); readers take shared table locks and may observe the effects of a
//! transaction that is still in flight (read-uncommitted for concurrent
//! readers). This mirrors the simple latch-based engines the tutorial era
//! assumed and keeps the capture-path measurements honest.

pub mod change;
pub mod codec;
pub mod columnar;
pub mod compact;
pub mod crc;
pub mod db;
pub mod index;
pub mod journal;
pub mod segment;
pub mod snapshot;
pub mod table;
pub mod trigger;
pub mod txn;
pub mod wal;

pub use change::{ChangeEvent, ChangeKind};
pub use columnar::{ColumnStats, StoredEvent};
pub use compact::{compact_once, CompactionPolicy};
pub use db::{Database, DbOptions};
pub use journal::JournalMiner;
pub use segment::{SegmentMeta, SegmentStore, SegmentStoreOptions, StoreStatsSnapshot};
pub use snapshot::QuerySnapshot;
pub use table::{Table, TableDef};
pub use trigger::{TriggerDef, TriggerOps, TriggerTiming};
pub use txn::Transaction;
pub use wal::{scan_buffer, SyncPolicy, Wal, WalTail};
