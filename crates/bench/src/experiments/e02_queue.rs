//! E2 — Message storage operational characteristics (§2.2.b.ii):
//! enqueue/dequeue throughput vs. journal sync policy (group commit,
//! DESIGN.md D6), on a durable (file-backed) database.
//!
//! Expected shape: per-commit fsync is the durability ceiling and the
//! throughput floor; group commit (EveryN) recovers most of the gap;
//! Never is the OS-decides upper bound.

use std::sync::Arc;
use std::time::Instant;

use evdb_queue::{QueueConfig, QueueManager};
use evdb_storage::{Database, DbOptions, SyncPolicy};
use evdb_types::{DataType, Record, Schema, Value};

use super::{tmpdir, Scale, Table};
use crate::fmt_rate;

fn run_policy(policy: SyncPolicy, groups: usize, n: usize) -> (f64, f64, u64) {
    let dir = tmpdir("e02");
    let db = Database::open(
        &dir,
        DbOptions {
            sync: policy,
            ..Default::default()
        },
    )
    .unwrap();
    let q = QueueManager::attach(Arc::clone(&db)).unwrap();
    q.create_queue(
        "q",
        Schema::of(&[("x", DataType::Int)]),
        QueueConfig::default(),
    )
    .unwrap();
    for g in 0..groups {
        q.subscribe("q", &format!("g{g}")).unwrap();
    }

    let t0 = Instant::now();
    for i in 0..n {
        q.enqueue("q", Record::from_iter([Value::Int(i as i64)]), "bench")
            .unwrap();
    }
    let enq_s = n as f64 / t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mut done = 0;
    while done < n {
        let ds = q.dequeue("q", "g0", 256).unwrap();
        if ds.is_empty() {
            break;
        }
        for d in ds {
            q.ack(&d).unwrap();
            done += 1;
        }
    }
    let deq_s = done as f64 / t0.elapsed().as_secs_f64();
    let syncs = db.wal_sync_count();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    (enq_s, deq_s, syncs)
}

/// Run E2.
pub fn run(scale: Scale) -> Table {
    let n = scale.pick(500, 20_000);
    let mut table = Table::new(
        "E2: message store throughput vs sync policy (durable, file WAL)",
        &["sync_policy", "enqueue/s", "dequeue+ack/s", "fsyncs"],
    );
    for (name, policy, groups) in [
        ("always", SyncPolicy::Always, 1),
        ("group(64)", SyncPolicy::EveryN(64), 1),
        ("never", SyncPolicy::Never, 1),
        ("never, 4 groups", SyncPolicy::Never, 4),
    ] {
        let (enq, deq, syncs) = run_policy(policy, groups, n);
        table.row(vec![
            name.into(),
            fmt_rate(enq),
            fmt_rate(deq),
            syncs.to_string(),
        ]);
    }
    table.note(format!(
        "{n} messages, 1 consumer group (the last row: 4, enqueue fans out to each), \
         batch dequeue 256 by one group"
    ));
    table.note("group commit trades bounded loss window for throughput (D6)");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_experiment_runs_and_group_commit_syncs_less() {
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 4);
        let syncs: Vec<u64> = t.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        assert!(syncs[0] > syncs[1], "always {} vs group {}", syncs[0], syncs[1]);
    }
}
