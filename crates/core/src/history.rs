//! Historical event store integration (DESIGN.md D14).
//!
//! The stream runtime evaluates events and forgets them; the paper's
//! architecture also wants the *context* — "what led up to this alert?"
//! — answerable after the fact. [`History`] gives every stream an
//! append-only columnar [`SegmentStore`]: each evaluated event is
//! appended to its stream's write-optimized head, frozen into immutable
//! time-sorted segments with zone maps, and compacted in the background
//! of the pump. Point/range/historical queries prune on per-segment and
//! per-zone statistics; `REPLAY` streams a seq range back in original
//! arrival order, either to the caller or re-fed through the CQ runtime
//! (via the dedup-bypassing replay path — see
//! `StreamRuntime::push_events_replay`).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use evdb_storage::{
    compact_once, CompactionPolicy, SegmentStore, SegmentStoreOptions, StoreStatsSnapshot,
    StoredEvent,
};
use evdb_types::{Error, Event, EventId, Result, Schema};
use parking_lot::RwLock;

/// Configuration for [`crate::EventServer::enable_history`].
#[derive(Clone, Default)]
pub struct HistoryConfig {
    /// Per-stream segment store tuning (freeze threshold, zone size,
    /// head durability, fault injection).
    pub store: SegmentStoreOptions,
    /// Compaction policy applied by [`History::maintain`] (one merge
    /// step per stream per pump). `None` disables compaction.
    pub compaction: Option<CompactionPolicy>,
}

impl HistoryConfig {
    /// Default store tuning with the default compaction policy enabled.
    pub fn compacted() -> HistoryConfig {
        HistoryConfig {
            store: SegmentStoreOptions::default(),
            compaction: Some(CompactionPolicy::default()),
        }
    }
}

/// Filesystem-safe directory name for a stream: alphanumerics, `-` and
/// `_` pass through; everything else becomes `_`, and a short FNV hash
/// of the original name keeps distinct streams from colliding.
fn stream_dir(name: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let safe: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("{safe}-{:08x}", hash as u32 ^ (hash >> 32) as u32)
}

/// Per-stream historical stores under one root directory.
pub struct History {
    root: PathBuf,
    config: HistoryConfig,
    stores: RwLock<HashMap<String, Arc<SegmentStore>>>,
}

impl History {
    /// Open (or create) the history root. Stores are opened lazily on
    /// first append per stream; streams already on disk from a previous
    /// run re-open then too (recovery is per-store, in
    /// [`SegmentStore::open`]).
    pub fn open(root: impl AsRef<Path>, config: HistoryConfig) -> Result<History> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        Ok(History {
            root,
            config,
            stores: RwLock::new(HashMap::new()),
        })
    }

    /// The store backing `stream`, opening it if this is the first
    /// touch. The schema is fixed at first open.
    pub fn store_for(&self, stream: &str, schema: &Arc<Schema>) -> Result<Arc<SegmentStore>> {
        if let Some(s) = self.stores.read().get(stream) {
            return Ok(Arc::clone(s));
        }
        let mut stores = self.stores.write();
        if let Some(s) = stores.get(stream) {
            return Ok(Arc::clone(s));
        }
        let store = Arc::new(SegmentStore::open(
            self.root.join(stream_dir(stream)),
            Arc::clone(schema),
            self.config.store.clone(),
        )?);
        stores.insert(stream.to_string(), Arc::clone(&store));
        Ok(store)
    }

    /// The store backing `stream`, if any event has been recorded on it.
    pub fn store(&self, stream: &str) -> Result<Arc<SegmentStore>> {
        self.stores
            .read()
            .get(stream)
            .map(Arc::clone)
            .ok_or_else(|| Error::NotFound(format!("history for stream '{stream}'")))
    }

    /// The store backing `stream`, re-opening it from disk if a previous
    /// process recorded history that this one has not touched yet (read
    /// paths must see history across restarts without waiting for the
    /// first append). `NotFound` when no history was ever recorded —
    /// reads never create store directories.
    pub fn store_or_recover(&self, stream: &str, schema: &Arc<Schema>) -> Result<Arc<SegmentStore>> {
        if let Some(s) = self.stores.read().get(stream) {
            return Ok(Arc::clone(s));
        }
        if !self.root.join(stream_dir(stream)).is_dir() {
            return Err(Error::NotFound(format!("history for stream '{stream}'")));
        }
        self.store_for(stream, schema)
    }

    /// Record one evaluated event; returns its history sequence number.
    pub fn append(&self, event: &Event) -> Result<u64> {
        let store = self.store_for(event.source.as_ref(), &event.schema)?;
        store.append(
            event.id.0,
            event.timestamp,
            event.retraction,
            event.payload.clone(),
        )
    }

    /// One compaction step per stream (bounded work per pump tick).
    /// Returns how many merges ran. No-op without a policy.
    pub fn maintain(&self) -> Result<u64> {
        let Some(policy) = &self.config.compaction else {
            return Ok(0);
        };
        let stores: Vec<Arc<SegmentStore>> = self.stores.read().values().map(Arc::clone).collect();
        let mut merges = 0;
        for store in stores {
            if compact_once(&store, policy)? {
                merges += 1;
            }
        }
        Ok(merges)
    }

    /// Reconstruct the stream [`Event`]s for a slice of stored history.
    /// Ids, timestamps and retraction flags are the originals.
    pub fn to_events(stream: &str, schema: &Arc<Schema>, stored: Vec<StoredEvent>) -> Vec<Event> {
        stored
            .into_iter()
            .map(|s| {
                let mut e = Event::new(
                    EventId(s.id),
                    stream,
                    s.timestamp,
                    s.payload,
                    Arc::clone(schema),
                );
                e.retraction = s.retraction;
                e
            })
            .collect()
    }

    /// Streams with recorded history, sorted.
    pub fn streams(&self) -> Vec<String> {
        let mut names: Vec<String> = self.stores.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Store statistics summed across every open stream store, plus the
    /// live segment count. All zeros while no stream has history.
    pub fn stats(&self) -> (u64, StoreStatsSnapshot) {
        let stores = self.stores.read();
        let mut segments = 0u64;
        let mut total = StoreStatsSnapshot::default();
        for store in stores.values() {
            segments += store.segment_count() as u64;
            let s = store.stats_snapshot();
            total.appended += s.appended;
            total.freezes += s.freezes;
            total.compactions += s.compactions;
            total.segments_considered += s.segments_considered;
            total.segments_pruned += s.segments_pruned;
            total.zones_considered += s.zones_considered;
            total.zones_pruned += s.zones_pruned;
            total.replayed += s.replayed;
            total.orphans_removed += s.orphans_removed;
        }
        (segments, total)
    }
}

/// The server's history slot: absent until
/// [`crate::EventServer::enable_history`], but the metrics gauges bridge
/// over it from construction (reading zeros while disabled), so enabling
/// history never changes the exposition's metric set.
#[derive(Default)]
pub struct HistorySlot {
    inner: RwLock<Option<Arc<History>>>,
}

impl HistorySlot {
    /// Install a history store; errors if one is already installed.
    pub fn install(&self, history: History) -> Result<Arc<History>> {
        let mut slot = self.inner.write();
        if slot.is_some() {
            return Err(Error::AlreadyExists("history store".into()));
        }
        let h = Arc::new(history);
        *slot = Some(Arc::clone(&h));
        Ok(h)
    }

    /// The installed history, if any.
    pub fn get(&self) -> Option<Arc<History>> {
        self.inner.read().as_ref().map(Arc::clone)
    }

    /// Aggregated stats, zeros when disabled.
    pub fn stats(&self) -> (u64, StoreStatsSnapshot) {
        match self.get() {
            Some(h) => h.stats(),
            None => (0, StoreStatsSnapshot::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evdb_types::{DataType, Record, TimestampMs, Value};

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "evdb-history-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn appends_replays_and_compacts_per_stream() {
        let dir = tmp("basic");
        let history = History::open(
            &dir,
            HistoryConfig {
                store: SegmentStoreOptions {
                    freeze_rows: 4,
                    zone_rows: 2,
                    ..Default::default()
                },
                compaction: Some(CompactionPolicy {
                    max_segments: 2,
                    small_rows: 1000,
                    max_merge: 8,
                }),
            },
        )
        .unwrap();
        let schema = Schema::of(&[("v", DataType::Int)]);
        for i in 0..16u64 {
            let e = Event::new(
                EventId(i),
                "ticks",
                TimestampMs(i as i64),
                Record::from_iter([Value::Int(i as i64)]),
                Arc::clone(&schema),
            );
            assert_eq!(history.append(&e).unwrap(), i);
        }
        while history.maintain().unwrap() > 0 {}
        let store = history.store("ticks").unwrap();
        assert!(store.segment_count() <= 2);
        let stored = store.replay(0, u64::MAX).unwrap();
        let events = History::to_events("ticks", &schema, stored);
        assert_eq!(events.len(), 16);
        assert_eq!(events[7].id, EventId(7));
        assert!(history.store("ghost").is_err());
        assert_eq!(history.streams(), vec!["ticks".to_string()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_recovers_from_disk_after_reopen() {
        let dir = tmp("reopen");
        let schema = Schema::of(&[("v", DataType::Int)]);
        {
            let history = History::open(&dir, HistoryConfig::default()).unwrap();
            let e = Event::new(
                EventId(1),
                "ticks",
                TimestampMs(1),
                Record::from_iter([Value::Int(1)]),
                Arc::clone(&schema),
            );
            history.append(&e).unwrap();
        }
        // Fresh process: the store is not in memory…
        let history = History::open(&dir, HistoryConfig::default()).unwrap();
        assert!(history.store("ticks").is_err());
        // …but read paths recover it from disk without an append first.
        let store = history.store_or_recover("ticks", &schema).unwrap();
        assert_eq!(store.replay(0, u64::MAX).unwrap().len(), 1);
        // A stream with no recorded history stays NotFound — recovery
        // must not create directories on reads.
        assert!(history.store_or_recover("ghost", &schema).is_err());
        assert!(!dir.join(stream_dir("ghost")).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn slot_reads_zero_when_disabled_and_installs_once() {
        let slot = HistorySlot::default();
        assert!(slot.get().is_none());
        assert_eq!(slot.stats().0, 0);
        let dir = tmp("slot");
        slot.install(History::open(&dir, HistoryConfig::default()).unwrap())
            .unwrap();
        assert!(slot.get().is_some());
        assert!(slot
            .install(History::open(&dir, HistoryConfig::default()).unwrap())
            .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stream_dirs_never_collide_on_sanitization() {
        assert_ne!(stream_dir("a:b"), stream_dir("a?b"));
        assert_eq!(stream_dir("plain"), stream_dir("plain"));
        assert!(stream_dir("delta::orders")
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_'));
    }
}
