//! Compaction policy for the segment store (DESIGN.md D14).
//!
//! Freezing produces many small segments; queries then pay per-segment
//! fixed costs (open, CRC, zone directory) even when pruning works. The
//! compactor merges **seq-adjacent runs of small segments** into larger
//! ones under [`CompactionPolicy`]. The merge itself is
//! [`SegmentStore::compact_segments`] — crash-safe via the manifest
//! commit point — so the policy layer here is pure selection logic; the
//! caller decides when a step runs (the core engine's pump does, on its
//! maintenance tick).
//!
//! Invariants (asserted by the torture harness, E12-style):
//!
//! | invariant                  | why it holds                            |
//! |----------------------------|------------------------------------------|
//! | no event lost              | merged segment written+fsynced before    |
//! |                            | the manifest drops its inputs            |
//! | no event duplicated        | inputs removed in the same manifest      |
//! |                            | commit that adds the merged segment      |
//! | seq ranges stay disjoint   | only seq-adjacent runs merge             |
//! | replay order unchanged     | seq column is carried through the merge  |

use evdb_types::Result;

use crate::segment::{SegmentMeta, SegmentStore};

/// When and what to compact.
#[derive(Debug, Clone, Copy)]
pub struct CompactionPolicy {
    /// Compact only when more than this many live segments exist.
    pub max_segments: usize,
    /// Segments at or under this row count are "small" (merge fodder).
    pub small_rows: u64,
    /// Most segments merged in one step (bounds the rewrite).
    pub max_merge: usize,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            max_segments: 8,
            small_rows: 1 << 16,
            max_merge: 8,
        }
    }
}

impl CompactionPolicy {
    /// Choose the next run to merge: the longest run (up to
    /// `max_merge`) of seq-adjacent small segments, smallest-first by
    /// total rows among candidates. `None` when the store is within
    /// policy. Pure function of the metas — deterministic and testable.
    pub fn pick_run(&self, metas: &[SegmentMeta]) -> Option<Vec<u64>> {
        if metas.len() <= self.max_segments {
            return None;
        }
        // Metas arrive in seq order. Slide a window over small segments
        // and keep the cheapest eligible run.
        let mut best: Option<(u64, Vec<u64>)> = None;
        let mut run: Vec<(u64, u64)> = Vec::new(); // (seq_min, rows)
        let consider = |run: &[(u64, u64)], best: &mut Option<(u64, Vec<u64>)>| {
            if run.len() < 2 {
                return;
            }
            for window in run.windows(run.len().min(self.max_merge)) {
                if window.len() < 2 {
                    continue;
                }
                let total: u64 = window.iter().map(|(_, r)| r).sum();
                let keys: Vec<u64> = window.iter().map(|(k, _)| *k).collect();
                if best.as_ref().is_none_or(|(t, _)| total < *t) {
                    *best = Some((total, keys));
                }
            }
        };
        for m in metas {
            if m.rows <= self.small_rows {
                run.push((m.seq_min, m.rows));
            } else {
                consider(&run, &mut best);
                run.clear();
            }
        }
        consider(&run, &mut best);
        best.map(|(_, keys)| keys)
    }
}

/// Run one policy-selected compaction step; returns whether a merge
/// happened. Call in a loop to converge.
pub fn compact_once(store: &SegmentStore, policy: &CompactionPolicy) -> Result<bool> {
    match policy.pick_run(&store.segment_metas()) {
        Some(run) => {
            store.compact_segments(&run)?;
            Ok(true)
        }
        None => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SegmentStoreOptions;
    use evdb_types::{DataType, Record, Schema, TimestampMs, Value};
    use std::fs;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "evdb-compact-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn small_store(dir: &PathBuf) -> SegmentStore {
        let store = SegmentStore::open(
            dir,
            Schema::of(&[("k", DataType::Int)]),
            SegmentStoreOptions {
                freeze_rows: 8,
                zone_rows: 4,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..96u64 {
            store
                .append(
                    i,
                    TimestampMs(i as i64),
                    false,
                    Record::from_iter([Value::Int(i as i64)]),
                )
                .unwrap();
        }
        store
    }

    #[test]
    fn policy_converges_below_max_segments() {
        let dir = tmp("converge");
        let store = small_store(&dir);
        assert_eq!(store.segment_count(), 12);
        let before = store.scan_all().unwrap();
        let policy = CompactionPolicy {
            max_segments: 4,
            small_rows: 1000,
            max_merge: 4,
        };
        let mut merges = 0;
        while compact_once(&store, &policy).unwrap() {
            merges += 1;
            assert!(merges < 64, "compaction did not converge");
        }
        assert!(store.segment_count() <= 4, "{}", store.segment_count());
        assert_eq!(store.scan_all().unwrap(), before);
        assert_eq!(store.stats_snapshot().compactions, merges);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn policy_is_a_noop_within_bounds() {
        let dir = tmp("noop");
        let store = small_store(&dir);
        let policy = CompactionPolicy {
            max_segments: 100,
            ..Default::default()
        };
        assert!(!compact_once(&store, &policy).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }
}
