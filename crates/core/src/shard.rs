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
//! * **Partitioning** — the router hashes each event's partition key
//!   ([`EventServer::partition_key_of`]: the stream name, optionally
//!   refined by a payload field) with [`shard_for`]. Same key ⇒ same
//!   shard ⇒ evaluated in arrival order, so stream-runtime windows,
//!   detector state and VIRT keys see exactly the sequence they would
//!   see sequentially.
//! * **Backpressure** — worker queues are bounded channels; when a
//!   worker falls behind, the router blocks on its queue rather than
//!   buffering without limit.
//! * **Delivery** — workers *collect* notifications
//!   ([`EventServer::evaluate_events`], the batched evaluation path)
//!   and the merge stage runs them through the stateful VIRT filter.
//!   Workers stage `(shard, batch)` pairs into one merge channel the
//!   merge thread blocks on; each round it takes everything queued,
//!   orders it by shard (0..n) and delivers the round through one
//!   filter-lock acquisition ([`EventServer::deliver_batch`]). A key's
//!   notifications all come from one worker in that worker's send
//!   order, so per-key delivery order still matches the sequential
//!   pump (D15).
//! * **Wake-ups** — no stage sleeps while work is staged for it: the
//!   router parks on the admission buffer's work signal (see
//!   [`crate::pump`]), workers block on their queues, the merge blocks
//!   on its channel. The pump interval is only the router's
//!   maintenance tick.
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

use crate::metrics::{ShardMetrics, StageBatch};
use crate::notify::Notification;
use crate::pump::{Pacer, PumpTally};
use crate::server::{Drained, EvalScratch, EventServer};

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
        let merge_tx = merge_tx.clone();
        let s = Arc::clone(server);
        let m = Arc::clone(metrics);
        let ta = Arc::clone(tally);
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
        let s = Arc::clone(server);
        let st = Arc::clone(stop);
        let ta = Arc::clone(tally);
        let sm = shard_metrics;
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
    let mut pacer = Pacer::new(interval);
    let mut poll_error_logged = false;
    loop {
        // The flag is read *before* draining (inside `next`): the
        // post-stop iteration then ships everything staged up to the
        // stop call.
        let turn = pacer.next(server, stop);
        let Drained { events, poll_error } = if turn.maintenance {
            server.drain_captured()
        } else {
            Drained::staged(server.drain_staged())
        };
        if let Some(e) = poll_error {
            // Counted; what the other captures gave is routed all the
            // same. Nobody receives the router's errors, so the first
            // is also said once (a capture that fails keeps failing
            // every tick).
            tally.errors(1);
            if !std::mem::replace(&mut poll_error_logged, true) {
                eprintln!("evdb: capture poll failed: {e} (later ones only count in evdb_pump_errors_total)");
            }
        }
        let mut batches: Vec<Vec<Event>> = (0..n).map(|_| Vec::new()).collect();
        let stamp_now = server.now();
        let mut stage_batch = StageBatch::default();
        for mut event in events {
            server.observe_route(&mut event, stamp_now, &mut stage_batch);
            let key = server.partition_key_of(&event);
            batches[shard_for(&key, n)].push(event);
        }
        server.stage_obs().flush(&mut stage_batch);
        let shed_at_router =
            server.admission().policy() == crate::admission::OverloadPolicy::ShedLowest;
        for (i, batch) in batches.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let len = batch.len() as u64;
            shard_metrics[i]
                .events_routed
                .fetch_add(len, Ordering::Relaxed);
            shard_metrics[i]
                .queue_depth
                .fetch_add(len, Ordering::Relaxed);
            if shed_at_router {
                // ShedLowest must not stall the router on one
                // saturated worker: a full queue sheds the batch
                // into the same accounting the admission gate
                // uses, so offered == evaluated + shed + rejected
                // still balances (DESIGN.md D10).
                match worker_txs[i].try_send(batch) {
                    Ok(()) => {}
                    Err(channel::TrySendError::Full(batch)) => {
                        server.admission().note_shed(batch.len() as u64);
                        shard_metrics[i]
                            .queue_depth
                            .fetch_sub(len, Ordering::Relaxed);
                    }
                    Err(channel::TrySendError::Disconnected(_)) => {
                        tally.errors(1);
                        shard_metrics[i]
                            .queue_depth
                            .fetch_sub(len, Ordering::Relaxed);
                    }
                }
            } else if worker_txs[i].send(batch).is_err() {
                // Blocking send (Block/Reject): a full worker
                // queue backpressures the router instead of
                // growing without bound. Err means the worker
                // died (only on panic); count and go on.
                tally.errors(1);
                shard_metrics[i]
                    .queue_depth
                    .fetch_sub(len, Ordering::Relaxed);
            }
        }
        // Housekeeping rides the router's tick, after the hand-off: the
        // workers evaluate this cycle's events meanwhile.
        if turn.maintenance && server.maintain().is_err() {
            tally.errors(1);
        }
        tally.cycle();
        if turn.stopping {
            break;
        }
    }
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
        let (_derived, errs) =
            server.evaluate_events(&mut batch, stamp_now, &mut stage_batch, &mut scratch, &mut pending);
        tally.errors(errs);
        server.end_batch();
        server.stage_obs().flush(&mut stage_batch);
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
        server.deliver_batch(round.into_iter().flat_map(|(_, notes)| notes).collect());
        server.end_batch();
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
