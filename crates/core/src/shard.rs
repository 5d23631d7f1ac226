//! The sharded parallel pump: a router/worker/merge pipeline that
//! evaluates captured events on N threads while preserving the
//! sequential engine's per-key semantics.
//!
//! ```text
//!                        ┌────────────┐  bounded   ┌───────────┐
//!  captures ──drain──►   │   router   ├───────────►│ worker 0  ├──┐
//!  (trigger/journal/     │ hash(key)  ├───────────►│ worker 1  ├──┤
//!   poll/ingest_async)   │  → shard   ├───────────►│    …      ├──┼──► merge ──► VIRT
//!                        └────────────┘            └───────────┘  │    (NotificationCenter)
//!                                                                 ┘
//! ```
//!
//! Each thread runs the same stage calls as the inline cycle: the router
//! drains and routes (and parks on the admission buffer's work signal
//! like the sequential pump), workers evaluate, the merge delivers.
//!
//! * **Partitioning** — the router hashes each event's partition key
//!   (the stream name, optionally refined by a payload field set with
//!   [`EventServer::set_partition_field`]) with [`shard_for`]. Same key ⇒
//!   same shard ⇒ evaluated in arrival order, so windows, detector state
//!   and VIRT keys see exactly the sequence they would see sequentially.
//! * **Backpressure** — worker queues are bounded channels; when a
//!   worker falls behind, the router blocks on its queue rather than
//!   buffering without limit.
//! * **Delivery** — workers *collect* notifications and the single merge
//!   thread runs them through the stateful VIRT filter, a round at a
//!   time in shard order (see `merge_loop`); a key's notifications all
//!   come from one worker, so per-key delivery order matches the
//!   sequential pump (D15).
//! * **Shutdown** — the router performs one final drain after the stop
//!   flag is raised, then drops the worker queues; workers finish their
//!   backlog and drop the merge queue; the merge delivers the tail.
//!   [`crate::PumpHandle`] joins the threads in that order, so no
//!   staged event or notification is lost on a clean stop.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel;
use evdb_types::Event;

use crate::capture::Drained;
use crate::cycle::PumpTally;
use crate::evaluate::EvalScratch;
use crate::metrics::{ShardMetrics, StageBatch};
use crate::notify::Notification;
use crate::server::EventServer;
use crate::{pump, OverloadPolicy};

/// In-flight batches a worker queue holds before the router blocks.
const WORKER_QUEUE_BATCHES: usize = 64;

/// In-flight notification batches the merge channel holds per worker
/// before the workers block on the merge stage.
const MERGE_QUEUE_BATCHES: usize = 64;

/// One worker's staged notifications, tagged with its shard index.
type ShardBatch = (usize, Vec<Notification>);

/// Map a partition key to a shard in `0..n`.
///
/// Uses [`DefaultHasher`] with its default (fixed) keys, so the mapping
/// is stable for the life of the process — the property the pipeline's
/// ordering guarantee rests on. Exposed so tests can assert routing
/// invariants.
pub fn shard_for(key: &str, n: usize) -> usize {
    assert!(n > 0, "shard_for: shard count must be positive");
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % n as u64) as usize
}

/// Spawn the sharded pipeline: 1 router + `workers` evaluators + 1
/// merge thread. Returns the joinable threads in shutdown-join order.
pub(crate) fn spawn_sharded(
    server: &Arc<EventServer>,
    interval: Duration,
    workers: usize,
    stop: &Arc<AtomicBool>,
    tally: &Arc<PumpTally>,
) -> Vec<JoinHandle<()>> {
    let n = workers.max(1);
    let shard_metrics = server.metrics().register_shards(n);

    // The merge exits when every worker has dropped its sender clone
    // and the channel is drained.
    let (merge_tx, merge_rx) = channel::bounded::<ShardBatch>(MERGE_QUEUE_BATCHES * n);
    let mut worker_txs: Vec<channel::Sender<Vec<Event>>> = Vec::with_capacity(n);
    let mut evaluators: Vec<JoinHandle<()>> = Vec::with_capacity(n);
    for (i, metrics) in shard_metrics.iter().enumerate() {
        let (tx, rx) = channel::bounded::<Vec<Event>>(WORKER_QUEUE_BATCHES);
        worker_txs.push(tx);
        let (s, m, ta, merge_tx) =
            (Arc::clone(server), Arc::clone(metrics), Arc::clone(tally), merge_tx.clone());
        let t = std::thread::Builder::new()
            .name(format!("evdb-shard-{i}"))
            .spawn(move || worker_loop(&s, i, &rx, &merge_tx, &m, &ta))
            .expect("spawn shard worker thread");
        evaluators.push(t);
    }
    drop(merge_tx);

    let merge_thread = {
        let s = Arc::clone(server);
        std::thread::Builder::new()
            .name("evdb-merge".into())
            .spawn(move || merge_loop(&s, &merge_rx))
            .expect("spawn merge thread")
    };

    let router_thread = {
        let (s, st, ta, sm) = (Arc::clone(server), Arc::clone(stop), Arc::clone(tally), shard_metrics);
        std::thread::Builder::new()
            .name("evdb-router".into())
            .spawn(move || router_loop(&s, interval, &worker_txs, &sm, &st, &ta))
            .expect("spawn router thread")
    };

    // Join order for a clean shutdown: router first (closes worker
    // queues), then workers (close the merge queue), then merge.
    let mut threads = vec![router_thread];
    threads.extend(evaluators);
    threads.push(merge_thread);
    threads
}

fn router_loop(
    server: &Arc<EventServer>,
    interval: Duration,
    worker_txs: &[channel::Sender<Vec<Event>>],
    shard_metrics: &[Arc<ShardMetrics>],
    stop: &AtomicBool,
    tally: &PumpTally,
) {
    let n = worker_txs.len();
    let shed_at_router = server.admission().policy() == OverloadPolicy::ShedLowest;
    let mut poll_error_logged = false;
    // The stop flag is read *before* draining (in `drive`'s wait): the
    // post-stop turn then ships everything staged up to the stop call.
    pump::drive(server, interval, stop, tally, |maintenance, staged| {
        let Drained { events, poll_error } = server.capture.drain(maintenance, staged);
        let mut errors = 0;
        if let Some(e) = poll_error {
            // Counted; what the other captures gave is routed all the
            // same. Nobody receives the router's errors, so the first
            // is also said once (a capture that fails keeps failing
            // every tick).
            errors += 1;
            if !std::mem::replace(&mut poll_error_logged, true) {
                eprintln!("evdb: capture poll failed: {e} (later ones only count in evdb_pump_errors_total)");
            }
        }
        let mut batches: Vec<Vec<Event>> = (0..n).map(|_| Vec::new()).collect();
        let stamp_now = server.now();
        let mut stage_batch = StageBatch::default();
        for mut event in events {
            server.capture.route(&mut event, stamp_now, &mut stage_batch);
            let key = server.capture.partition_key_of(&event);
            batches[shard_for(&key, n)].push(event);
        }
        server.stage_obs.flush(&mut stage_batch);
        for (batch, (tx, shard)) in batches.into_iter().zip(worker_txs.iter().zip(shard_metrics)) {
            if batch.is_empty() {
                continue;
            }
            let len = batch.len() as u64;
            shard.events_routed.fetch_add(len, Ordering::Relaxed);
            shard.queue_depth.fetch_add(len, Ordering::Relaxed);
            let sent = if shed_at_router {
                // ShedLowest must not stall the router on one saturated
                // worker: a full queue sheds the batch into the same
                // accounting the admission gate uses, so offered ==
                // evaluated + shed + rejected still balances (D10).
                match tx.try_send(batch) {
                    Ok(()) => true,
                    Err(channel::TrySendError::Full(_)) => {
                        server.admission().note_shed(len);
                        false
                    }
                    Err(channel::TrySendError::Disconnected(_)) => {
                        errors += 1;
                        false
                    }
                }
            } else {
                // Blocking send (Block/Reject): a full worker queue
                // backpressures the router instead of growing without
                // bound. Err means the worker died (only on panic);
                // count and go on.
                let sent = tx.send(batch).is_ok();
                errors += u64::from(!sent);
                sent
            };
            if !sent {
                shard.queue_depth.fetch_sub(len, Ordering::Relaxed);
            }
        }
        // Housekeeping rides the router's tick, after the hand-off: the
        // workers evaluate this cycle's events meanwhile.
        if maintenance && server.maintain().is_err() {
            errors += 1;
        }
        errors
    });
    // Dropping the senders lets the workers drain their queues and exit.
}

fn worker_loop(
    server: &Arc<EventServer>,
    shard: usize,
    rx: &channel::Receiver<Vec<Event>>,
    merge: &channel::Sender<ShardBatch>,
    metrics: &ShardMetrics,
    tally: &PumpTally,
) {
    let mut scratch = EvalScratch::default();
    // `recv` yields every batch still queued even after the router has
    // dropped the sender, so a stop never abandons routed events.
    while let Ok(mut batch) = rx.recv() {
        metrics.busy_cycles.fetch_add(1, Ordering::Relaxed);
        let mut pending = Vec::new();
        let stamp_now = server.now();
        let mut stage_batch = StageBatch::default();
        let (_, errors) = server.evaluate.evaluate_events(
            &mut batch, stamp_now, &mut stage_batch, &mut scratch, &mut pending,
        );
        server.cycle.count(Some(tally), 0, errors);
        server.notify.end_batch();
        server.stage_obs.flush(&mut stage_batch);
        metrics
            .queue_depth
            .fetch_sub(batch.len() as u64, Ordering::Relaxed);
        if !pending.is_empty() && merge.send((shard, pending)).is_err() {
            // Merge stage gone: only possible mid-teardown after a
            // panic; stop consuming.
            break;
        }
    }
}

/// The merge stage: block until a worker stages a batch, take whatever
/// else is queued, and deliver the round's notifications as one batch
/// in shard order (0..n). Ordering a round by shard keeps delivery
/// deterministic for a given set of staged batches; per-key order needs
/// no cross-shard coordination because a key's notifications all come
/// from one worker, in its send order. Exits when every worker has hung
/// up and the channel is drained — queued batches are still yielded
/// after the senders drop, so a clean stop delivers the tail.
fn merge_loop(server: &Arc<EventServer>, staged: &channel::Receiver<ShardBatch>) {
    while let Ok(first) = staged.recv() {
        let mut round: Vec<ShardBatch> = std::iter::once(first).chain(staged.try_iter()).collect();
        // Stable: a shard's batches keep their send order.
        round.sort_by_key(|(shard, _)| *shard);
        server
            .notify
            .deliver_batch(round.into_iter().flat_map(|(_, notes)| notes).collect());
        server.notify.end_batch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_for_is_stable_and_in_range() {
        for n in 1..=16 {
            for key in ["ticks", "meters/7", "a", "", "stream/NULL"] {
                let s = shard_for(key, n);
                assert!(s < n);
                assert_eq!(s, shard_for(key, n), "same key must map identically");
            }
        }
    }

    #[test]
    fn shard_for_spreads_keys() {
        let n = 8;
        let mut hit = vec![false; n];
        for i in 0..256 {
            hit[shard_for(&format!("stream/{i}"), n)] = true;
        }
        assert!(hit.iter().all(|&h| h), "256 keys should cover all 8 shards");
    }
}
