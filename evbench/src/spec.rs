//! The benchmark's vocabulary: workload names, metric names with unit and
//! direction, and the constants both commits of a comparison share. A test
//! holds this file and `BENCHMARK.json` to each other in both directions.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Open-loop rate of the `paced` phase, events per second. Fixed here,
    /// never derived at run time, so parent and change are offered the
    /// same load: a round number between a tenth and a third of
    /// `throughput_evps` as first measured on the 2-core reference box.
    pub paced_rate: u64,
    /// `setup_s` runs from before the engine is built until this many
    /// events have their results: about an eighth of a second of work on
    /// the reference box. Building and registering alone takes 0.1 ms to
    /// 35 ms, mostly thread wake-ups, and read 0.25 ms or 0.55 ms from
    /// one process to the next.
    pub setup_events: u64,
    /// `peak_rss_mb` is read when this many events have completed: a fifth
    /// to a third of what a run gets through on the reference box, so a
    /// box half as fast still reaches it.
    pub rss_at_events: u64,
    /// The layers the probe should find doing most of the work.
    pub dominant: &'static [&'static str],
    /// Run by hand only, not listed in `BENCHMARK.json`: no bound holds
    /// on it on a shared box.
    pub by_hand: bool,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "wire_passthrough",
        paced_rate: 20_000,
        setup_events: 35_000,
        rss_at_events: 800_000,
        dominant: &["server"],
        by_hand: false,
    },
    Workload {
        name: "rules_embedded",
        paced_rate: 2_000,
        setup_events: 500,
        rss_at_events: 50_000,
        dominant: &["rules", "expr"],
        by_hand: false,
    },
    Workload {
        name: "cq_embedded",
        paced_rate: 30_000,
        setup_events: 30_000,
        rss_at_events: 700_000,
        dominant: &["cq"],
        by_hand: false,
    },
    Workload {
        name: "durable_pipeline",
        paced_rate: 1_000,
        setup_events: 1_500,
        rss_at_events: 35_000,
        dominant: &["storage"],
        // Its closed-loop rate is one fsync after another, so it is the
        // host's disk latency that minute: the quartile spread of ten
        // runs was 0.31 and 0.45 on the box that checks the bounds.
        by_hand: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `--seconds` when the flag is absent; equals `run_seconds` in
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 32.0;
/// Shares of `--seconds`: closed-loop `saturate`, then open-loop `paced`.
pub const SATURATE_SHARE: f64 = 0.4;
/// Warm-up before the first timed request, as a share of `--seconds`.
pub const WARMUP_SHARE: f64 = 0.1;
/// Closed-loop bound on requests without a result, served workloads; the
/// embedded ones block at as many staged events. At 256 the pump, which
/// sleeps 1 ms whenever it finds nothing staged, drained the whole window
/// each tick: `saturate` then measured 256 events per tick (~135 000 ev/s)
/// and how punctually the box wakes a sleeper, not what the engine can do
/// (~210 000 ev/s).
pub const WINDOW: u64 = 2_048;
/// Outbound frames a served session may have queued. The server's
/// default (1024) is 50 ms of updates at the paced rate: one scheduler
/// stall on a shared box and the hub sheds, which would make a noisy
/// neighbour look like a correctness failure. Shedding is still checked.
pub const SESSION_BUFFER: usize = 1 << 16;
/// Staged-buffer capacity the embedded producers block on.
pub const INGEST_CAPACITY: usize = 2_048;
/// A result later than this after its due time counts as failed.
pub const LATE_NS: u64 = 1_000_000_000;
/// Inputs each layer probe replays, before a probe's own time cap.
pub const PROBE_INPUTS: usize = 50_000;

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: &[Metric] = &[
    lower("setup_s", "s"),
    higher("throughput_evps", "ev/s"),
    lower("result_p50_ms", "ms"),
    lower("result_p90_ms", "ms"),
    lower("peak_rss_mb", "MiB"),
];

/// Single layers, named after the crates. A layer a workload bypasses
/// reports 0.
pub const PER_LAYER: &[Metric] = &[
    // Operations only one workload has; 0 elsewhere.
    lower("ops.rule_update_p50_ms", "ms"),
    lower("ops.history_query_p50_ms", "ms"),
    higher("ops.replay_evps", "ev/s"),
    lower("ops.recover_s", "s"),
    lower("ops.disk_bytes_per_event", "bytes"),
    lower("ops.failed_share", "ratio"),
    // The far tail, and the producer-visible acknowledgement (two thread
    // wake-ups on the served workloads, the generator's own timer on the
    // embedded ones): too unsteady on a shared box to carry a bound.
    lower("ops.result_p99_ms", "ms"),
    lower("ops.ack_p50_ms", "ms"),
    lower("ops.ack_p90_ms", "ms"),
    lower("ops.ack_p99_ms", "ms"),
    // server
    lower("server.frame_decode_ns", "ns"),
    lower("server.parse_request_ns", "ns"),
    lower("server.render_encode_ns", "ns"),
    lower("server.hub_fanout_ns", "ns"),
    lower("server.ping_rtt_us", "us"),
    lower("server.ingest_rtt_us", "us"),
    higher("server.frames_rx", "count"),
    higher("server.frames_tx", "count"),
    higher("server.updates_delivered", "count"),
    lower("server.updates_dropped", "count"),
    // core
    lower("core.ingest_async_ns", "ns"),
    lower("core.admit_drain_ns", "ns"),
    lower("core.pump_ns_per_event", "ns"),
    lower("core.evaluate_events_ns", "ns"),
    lower("core.notify_ns", "ns"),
    lower("core.history_append_ns", "ns"),
    higher("core.events_captured", "count"),
    higher("core.events_processed", "count"),
    higher("core.derived_events", "count"),
    higher("core.notify_delivered", "count"),
    lower("core.notify_suppressed", "count"),
    lower("core.ingest_peak_depth", "count"),
    higher("core.events_per_pump", "ratio"),
    // rules
    lower("rules.match_batch_ns", "ns"),
    lower("rules.match_record_ns", "ns"),
    lower("rules.add_rule_us", "us"),
    lower("rules.remove_rule_us", "us"),
    lower("rules.candidates_total", "count"),
    higher("rules.matches_total", "count"),
    higher("rules.match_precision", "ratio"),
    // expr
    lower("expr.eval_batch_ns", "ns"),
    lower("expr.compile_us", "us"),
    lower("expr.batches_total", "count"),
    lower("expr.batched_records_total", "count"),
    higher("expr.records_per_batch", "ratio"),
    // cq
    lower("cq.push_events_ns", "ns"),
    lower("cq.push_event_ns", "ns"),
    lower("cq.flush_ns", "ns"),
    higher("cq.panes_total", "count"),
    lower("cq.window_memory_items", "count"),
    lower("cq.retractions_total", "count"),
    lower("cq.pane_reopens_total", "count"),
    higher("cq.late_admitted_total", "count"),
    lower("cq.late_dropped_total", "count"),
    higher("cq.rows_out_per_event", "ratio"),
    // storage
    lower("storage.txn_commit_us", "us"),
    lower("storage.wal_append_us", "us"),
    lower("storage.segment_append_ns", "ns"),
    lower("storage.segment_freeze_ms", "ms"),
    lower("storage.segment_query_us", "us"),
    lower("storage.replay_ns_per_event", "ns"),
    lower("storage.db_open_ms", "ms"),
    lower("storage.wal_fsyncs", "count"),
    lower("storage.wal_bytes", "bytes"),
    higher("storage.wal_group_size_mean", "ratio"),
    lower("storage.segments", "count"),
    lower("storage.freezes", "count"),
    lower("storage.compactions", "count"),
    higher("storage.segments_pruned_share", "ratio"),
    higher("storage.zones_pruned", "count"),
    // queue
    lower("queue.enqueue_us", "us"),
    lower("queue.dequeue_ack_us", "us"),
    higher("queue.drain_msgps", "1/s"),
    higher("queue.enqueued_total", "count"),
    higher("queue.dequeued_total", "count"),
    higher("queue.acked_total", "count"),
    lower("queue.redeliveries_total", "count"),
    // The budget that reconciles layer time with the end-to-end rate.
    lower("budget.busy_ns_per_event", "ns"),
    higher("budget.dominant_share", "ratio"),
    higher("budget.explained_share", "ratio"),
    lower("budget.unexplained_ns_per_event", "ns"),
    // The load generator itself, and what tracing costs.
    lower("loadgen.sched_lag_p99_ms", "ms"),
    higher("loadgen.offered_evps", "ratio"),
    lower("trace.overhead_share", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use std::collections::BTreeSet;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} is an array"))
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn emitted(list: &[Metric]) -> Vec<(String, String, String)> {
        list.iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect()
    }

    /// Names, units and directions the program emits are exactly those the
    /// contract file declares: a metric added or dropped on either side
    /// alone fails here.
    #[test]
    fn benchmark_json_and_the_program_agree_in_both_directions() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), emitted(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), emitted(PER_LAYER));
        let workloads: Vec<String> = declared(&doc, "workloads")
            .into_iter()
            .map(|w| w.0)
            .collect();
        let ours: Vec<String> = WORKLOADS
            .iter()
            .filter(|w| !w.by_hand)
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }

    #[test]
    fn benchmark_json_meets_the_contract_limits() {
        let doc = benchmark_json();
        let Json::Obj(map) = &doc else {
            panic!("object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let name_ok = |n: &str| {
            (1..=64).contains(&n.len())
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            (1..=16).contains(&u.len())
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names = BTreeSet::new();
        for key in ["end_to_end", "per_layer", "workloads"] {
            for (name, unit, _) in declared(&doc, key) {
                assert!(name_ok(&name), "{name}");
                assert!(key == "workloads" || unit_ok(&unit), "{name}: {unit}");
                assert!(names.insert(name.clone()), "{name} used twice");
            }
        }
        assert!((2..=8).contains(&WORKLOADS.iter().filter(|w| !w.by_hand).count()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{bound}");
        }
        for w in doc.get("workloads").and_then(Json::as_arr).unwrap() {
            let why = w.get("why").and_then(Json::as_str).expect("why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }

    #[test]
    fn every_workload_names_a_layer_the_budget_knows() {
        for w in WORKLOADS {
            for layer in w.dominant {
                assert!(PER_LAYER
                    .iter()
                    .any(|m| m.name.starts_with(&format!("{layer}."))));
            }
            assert!(workload(w.name).is_some());
        }
    }
}
