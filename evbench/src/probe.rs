//! Per-layer measurement, from outside the engine.
//!
//! *Counts* are read from the engine's own registry and public accessors
//! after a run. *Timings* come from the layer probes: the first generated
//! inputs of the workload are replayed single-threaded through each
//! layer's public functions in isolation, every call (or chunk of 256
//! calls) wrapped in a bench-side span. The budget then subtracts from
//! each layer the separately probed children it calls, and sets the sum
//! of self times against the time one event takes end to end.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;

use evdb_core::admission::{AdmissionControl, OverloadPolicy, Staged};
use evdb_core::history::{History, HistoryConfig};
use evdb_core::metrics::StageBatch;
use evdb_core::notify::{Notification, NotificationCenter, VirtPolicy};
use evdb_core::server::{EvalScratch, ServerConfig};
use evdb_core::EventServer;
use evdb_cq::aggregate::AggMode;
use evdb_cq::StreamRuntime;
use evdb_expr::{BatchScratch, CompiledExpr};
use evdb_queue::{QueueConfig, QueueManager};
use evdb_rules::{IndexedMatcher, MatchScratch, Matcher, Rule};
use evdb_server::frame::{encode_frame, FrameDecoder};
use evdb_server::hub::Hub;
use evdb_server::protocol::{parse_record, parse_request, render_row, Request};
use evdb_server::{NetConfig, NetServer};
use evdb_storage::{Database, DbOptions, SegmentStore, SegmentStoreOptions};
use evdb_types::{Event, EventId, Record, Schema, SystemClock, TimestampMs, Trace, Value};

use crate::embedded::{tick_record, tick_schema};
use crate::gen::{self, RuleSpec};
use crate::load::Clock;
use crate::run::Report;
use crate::spec::{self, PROBE_INPUTS};
use crate::trace::{self_times, Budget};
use crate::{client, cq, durable, wire};

const CHUNK: usize = 256;
/// A probe stops replaying once it has been busy this long.
const CAP_NS: u64 = 400_000_000;

/// Counts every layer keeps about itself, read once the run is over.
/// `pump_cycles` is known only when the benchmark owns the pump handle.
pub fn engine_counts(report: &mut Report, engine: &Arc<EventServer>, pump_cycles: Option<u64>) {
    let snap = engine.registry().snapshot();
    let gauge = |name: &str| snap.gauges.get(name).copied().unwrap_or(0.0);
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let processed = gauge("evdb_core_events_processed");
    report.set("core.events_captured", gauge("evdb_core_events_captured"));
    report.set("core.events_processed", processed);
    report.set("core.derived_events", gauge("evdb_core_derived_events"));
    report.set("core.notify_delivered", gauge("evdb_notify_delivered"));
    report.set("core.notify_suppressed", gauge("evdb_notify_suppressed"));
    report.set(
        "core.ingest_peak_depth",
        engine.admission().peak_depth() as f64,
    );
    report.set(
        "core.events_per_pump",
        ratio(processed, pump_cycles.unwrap_or(0) as f64),
    );

    let (candidates, matches) = (
        counter("evdb_rules_candidates_total"),
        counter("evdb_rules_matches_total"),
    );
    report.set("rules.candidates_total", candidates);
    report.set("rules.matches_total", matches);
    report.set("rules.match_precision", ratio(matches, candidates));

    let (batches, batched) = (
        gauge("evdb_expr_batches_total"),
        gauge("evdb_expr_batched_records_total"),
    );
    report.set("expr.batches_total", batches);
    report.set("expr.batched_records_total", batched);
    report.set("expr.records_per_batch", ratio(batched, batches));

    report.set("cq.panes_total", counter("evdb_cq_panes_total"));
    report.set("cq.window_memory_items", gauge("evdb_cq_window_memory"));
    report.set("cq.retractions_total", gauge("evdb_cq_retractions_total"));
    report.set("cq.pane_reopens_total", gauge("evdb_cq_pane_reopens_total"));
    report.set(
        "cq.late_admitted_total",
        gauge("evdb_cq_late_admitted_total"),
    );
    report.set("cq.late_dropped_total", gauge("evdb_cq_late_dropped_total"));
    report.set(
        "cq.rows_out_per_event",
        ratio(counter("evdb_cq_panes_total"), processed),
    );

    report.set("storage.wal_fsyncs", engine.db().wal_sync_count() as f64);
    report.set("storage.wal_bytes", engine.db().wal_len_bytes() as f64);
    let group = snap.histograms.get("evdb_wal_group_size");
    report.set(
        "storage.wal_group_size_mean",
        group.map_or(0.0, |h| ratio(h.sum, h.count as f64)),
    );
    if let Some(history) = engine.history() {
        let (segments, s) = history.stats();
        report.set("storage.segments", segments as f64);
        report.set("storage.freezes", s.freezes as f64);
        report.set("storage.compactions", s.compactions as f64);
        report.set(
            "storage.segments_pruned_share",
            ratio(s.segments_pruned as f64, s.segments_considered as f64),
        );
        report.set("storage.zones_pruned", s.zones_pruned as f64);
    }

    report.set("queue.enqueued_total", counter("evdb_queue_enqueued_total"));
    report.set("queue.dequeued_total", counter("evdb_queue_dequeued_total"));
    report.set("queue.acked_total", counter("evdb_queue_acked_total"));
    report.set(
        "queue.redeliveries_total",
        counter("evdb_queue_redeliveries_total"),
    );
}

/// Span bookkeeping shared by the probes of one workload.
struct Prober<'a> {
    report: &'a mut Report,
    clock: Clock,
    roots: BTreeMap<&'static str, u32>,
    busy_ns: BTreeMap<&'static str, u64>,
    /// ns per input event of each probe on the workload's path.
    path: BTreeMap<&'static str, f64>,
}

impl<'a> Prober<'a> {
    fn new(report: &'a mut Report) -> Prober<'a> {
        Prober {
            report,
            clock: Clock::start(),
            roots: BTreeMap::new(),
            busy_ns: BTreeMap::new(),
            path: BTreeMap::new(),
        }
    }

    /// Run `f` inside a span of probe `name`, parented to the probe's
    /// root span; `event` is the first input the call covers.
    fn span<T>(&mut self, name: &'static str, event: usize, f: impl FnOnce() -> T) -> T {
        let start = self.clock.now_ns();
        let out = std::hint::black_box(f());
        let end = self.clock.now_ns();
        let trace = &mut self.report.trace;
        let root = *self
            .roots
            .entry(name)
            .or_insert_with(|| trace.add(name, start, end, None, event as u64));
        trace.spans[root as usize].end_ns = end;
        trace.add(name, start, end, Some(root), event as u64);
        *self.busy_ns.entry(name).or_default() += end - start;
        out
    }

    /// Chunks of `CHUNK` inputs out of `n`, until the probe's time cap.
    /// `f` gets each chunk's range and calls [`span`](Self::span) itself,
    /// so preparation stays outside the timed part. Returns inputs done.
    fn chunks(
        &mut self,
        name: &'static str,
        n: usize,
        mut f: impl FnMut(&mut Self, std::ops::Range<usize>),
    ) -> usize {
        let mut done = 0;
        while done < n && self.busy_ns.get(name).copied().unwrap_or(0) < CAP_NS {
            let range = done..(done + CHUNK).min(n);
            done = range.end;
            f(self, range);
        }
        done
    }

    /// Busy time of probe `name` per item, in ns.
    fn per_item(&self, name: &'static str, items: usize) -> f64 {
        self.busy_ns.get(name).copied().unwrap_or(0) as f64 / items.max(1) as f64
    }

    /// Report probe `name` as metric `metric` (ns per item × `scale`).
    fn report_as(
        &mut self,
        name: &'static str,
        metric: &'static str,
        items: usize,
        scale: f64,
    ) -> f64 {
        let ns = self.per_item(name, items);
        self.report.set(metric, ns * scale);
        ns
    }

    /// [`report_as`](Self::report_as), and count the probe's time towards
    /// the workload's budget under its own name.
    fn on_path(&mut self, name: &'static str, metric: &'static str, items: usize, scale: f64) {
        let ns = self.report_as(name, metric, items, scale);
        self.path.insert(name, ns);
    }

    /// Close the books: self times, dominant share, explained share.
    fn budget(
        self,
        calls: &[(&'static str, &'static str)],
        dominant: &[&str],
        throughput_evps: f64,
    ) {
        let selfs = self_times(&self.path, calls);
        let budget = Budget::of(&selfs);
        let per_event_ns = if throughput_evps > 0.0 {
            1e9 / throughput_evps
        } else {
            0.0
        };
        self.report.set("budget.busy_ns_per_event", budget.busy_ns);
        self.report
            .set("budget.dominant_share", budget.share(dominant));
        self.report.set(
            "budget.explained_share",
            if per_event_ns > 0.0 {
                budget.busy_ns / per_event_ns
            } else {
                0.0
            },
        );
        self.report.set(
            "budget.unexplained_ns_per_event",
            per_event_ns - budget.busy_ns,
        );
        let layers: Vec<String> = budget
            .by_layer
            .iter()
            .map(|(l, ns)| format!("{l} {ns:.0}"))
            .collect();
        self.report.notes.push(format!(
            "budget (self ns/event): {}; busy {:.0} of {per_event_ns:.0} ns per event end to end",
            layers.join(", "),
            budget.busy_ns
        ));
    }
}

fn tick_event(schema: &Arc<Schema>, seed: u64, seq: u64, ts: i64) -> Event {
    Event::new(
        EventId(seq + 1),
        "ticks",
        TimestampMs(ts),
        tick_record(&gen::tick(seed, seq)),
        Arc::clone(schema),
    )
}

fn throughput(report: &Report) -> f64 {
    report.values.get("throughput_evps").copied().unwrap_or(0.0)
}

/// The three codec probes of the server layer: frame decode, request and
/// record parse, row render and frame encode.
fn server_codec(p: &mut Prober, lines: &[String], schema: &Schema, rows: &[Record], query: &str) {
    let n = lines.len();
    let mut wire_bytes = Vec::new();
    for line in lines {
        encode_frame(line.as_bytes(), &mut wire_bytes);
    }
    // Decode as the reader loop does: 16 KiB reads, then frames out.
    let mut decoder = FrameDecoder::new();
    let mut frames = 0usize;
    for (i, read) in wire_bytes.chunks(16 * 1024).enumerate() {
        frames += p.span("server.frame_decode", i, || {
            decoder.push(read);
            std::iter::from_fn(|| decoder.next_frame()).count()
        });
    }
    assert_eq!(frames, n, "decoder returned every frame");
    p.on_path("server.frame_decode", "server.frame_decode_ns", n, 1.0);

    let done = p.chunks("server.parse_request", n, |p, range| {
        p.span("server.parse_request", range.start, || {
            for line in &lines[range] {
                let values = match parse_request(line).expect("generated request parses") {
                    Request::Ingest { values, .. } | Request::Insert { values, .. } => values,
                    other => unreachable!("generated {other:?}"),
                };
                std::hint::black_box(
                    parse_record(schema, &values).expect("generated record parses"),
                );
            }
        })
    });
    p.on_path("server.parse_request", "server.parse_request_ns", done, 1.0);

    let mut out = Vec::with_capacity(256);
    let done = p.chunks("server.render_encode", rows.len(), |p, range| {
        p.span("server.render_encode", range.start, || {
            for row in &rows[range] {
                out.clear();
                encode_frame(
                    format!("UPDATE {query} + {}", render_row(row)).as_bytes(),
                    &mut out,
                );
                std::hint::black_box(&out);
            }
        })
    });
    p.on_path("server.render_encode", "server.render_encode_ns", done, 1.0);
}

/// Window-1 closed loops over TCP: the socket and wake-up floor (`PING`),
/// and the floor plus parse and admit (`INGEST`).
fn server_rtt(p: &mut Prober, seed: u64, rate: u64) {
    let engine = Arc::new(EventServer::in_memory(ServerConfig::default()).expect("engine"));
    let mut server = NetServer::start(Arc::clone(&engine), NetConfig::default()).expect("server");
    let (mut w, mut r) = client::connect(server.tcp_addr()).expect("connect");
    let created = client::call(
        &mut w,
        &mut r,
        &format!("CREATE STREAM ticks {}", wire::STREAM_SPEC),
    );
    assert_eq!(created.expect("create"), "OK");
    let rounds = 2_000;
    for i in 0..rounds {
        let reply = p.span("server.ping_rtt", i, || {
            client::call(&mut w, &mut r, "PING")
        });
        assert_eq!(reply.expect("ping"), "PONG");
    }
    p.report_as("server.ping_rtt", "server.ping_rtt_us", rounds, 1e-3);
    for i in 0..rounds {
        let line = wire::ingest_line(seed, i as u64, rate);
        let reply = p.span("server.ingest_rtt", i, || {
            client::call(&mut w, &mut r, &line)
        });
        assert_eq!(reply.expect("ingest"), "OK staged");
    }
    p.report_as("server.ingest_rtt", "server.ingest_rtt_us", rounds, 1e-3);
    server.shutdown();
}

/// Hub fan-out per delivered update: the same inline evaluation with the
/// hub subscribed (a bench-owned outbound channel) and with a no-op
/// subscriber; the difference is the hub's.
fn server_hub(p: &mut Prober, seed: u64, rate: u64, n: usize) {
    let make = || {
        let engine = EventServer::in_memory(ServerConfig::default()).expect("engine");
        engine
            .create_stream("ticks", tick_schema())
            .expect("stream");
        engine.register_cql("feed", wire::QUERY).expect("query");
        engine
    };
    let bare = make();
    bare.on_query_updates("feed", |row, _| {
        std::hint::black_box(row);
    })
    .expect("subscribe");
    let hubbed = make();
    let hub = Hub::new();
    hub.ensure_query(&hubbed, "feed").expect("hub attaches");
    let (tx, rx) = sync_channel(CHUNK);
    hub.subscribe("feed", 1, tx);

    let feed = |p: &mut Prober, name: &'static str, engine: &EventServer, drain: bool| {
        p.chunks(name, n, |p, range| {
            let records: Vec<(i64, Record)> = range
                .clone()
                .map(|seq| {
                    (
                        gen::slot_ts(seq as u64, rate),
                        tick_record(&gen::tick(seed, seq as u64)),
                    )
                })
                .collect();
            p.span(name, range.start, || {
                for (ts, record) in records {
                    engine
                        .ingest("ticks", TimestampMs(ts), record)
                        .expect("ingest");
                }
            });
            if drain {
                assert_eq!(
                    rx.try_iter().count(),
                    range.len(),
                    "one update per event reached the channel"
                );
            }
        })
    };
    let with_hub = feed(p, "server.hub_fanout", &hubbed, true);
    let without = feed(p, "server.hub_fanout.baseline", &bare, false);
    let ns = (p.per_item("server.hub_fanout", with_hub)
        - p.per_item("server.hub_fanout.baseline", without))
    .max(0.0);
    p.report.set("server.hub_fanout_ns", ns);
    p.path.insert("server.hub_fanout", ns);
}

/// `ingest_async` (validate, mint, admit) and the admission buffer alone.
fn core_ingest(p: &mut Prober, events: &[Event]) {
    let engine = EventServer::in_memory(ServerConfig::default()).expect("engine");
    engine
        .create_stream("ticks", Arc::clone(&events[0].schema))
        .expect("stream");
    let done = p.chunks("core.ingest_async", events.len(), |p, range| {
        let staged: Vec<(TimestampMs, Record)> = events[range.clone()]
            .iter()
            .map(|e| (e.timestamp, e.payload.clone()))
            .collect();
        p.span("core.ingest_async", range.start, || {
            for (ts, record) in staged {
                engine.ingest_async("ticks", ts, record).expect("staged");
            }
        });
        engine.admission().drain();
    });
    p.on_path("core.ingest_async", "core.ingest_async_ns", done, 1.0);

    let admission = AdmissionControl::new(CHUNK, OverloadPolicy::Block);
    let done = p.chunks("core.admit_drain", events.len(), |p, range| {
        let staged: Vec<Staged> = events[range.clone()]
            .iter()
            .cloned()
            .map(Staged::External)
            .collect();
        p.span("core.admit_drain", range.start, || {
            for item in staged {
                admission.admit(0, item).expect("admitted");
            }
            admission.drain()
        });
    });
    p.report_as("core.admit_drain", "core.admit_drain_ns", done, 1.0);
}

/// `EventServer::pump` over pre-staged batches, and `evaluate_events` over
/// the same events on a second, identically configured engine.
fn core_pump(p: &mut Prober, events: &[Event], configure: &dyn Fn() -> EventServer) {
    let engine = configure();
    let done = p.chunks("core.pump", events.len(), |p, range| {
        for e in &events[range.clone()] {
            engine
                .ingest_async(e.source.as_ref(), e.timestamp, e.payload.clone())
                .expect("staged");
        }
        let stats = p.span("core.pump", range.start, || engine.pump().expect("pump"));
        assert_eq!(stats.captured as usize, range.len());
        engine.notifications().drain_delivered();
    });
    p.on_path("core.pump", "core.pump_ns_per_event", done, 1.0);

    let engine = configure();
    let (mut stage, mut scratch, mut notes) =
        (StageBatch::default(), EvalScratch::default(), Vec::new());
    let done = p.chunks("core.evaluate_events", events.len(), |p, range| {
        let mut batch = events[range.clone()].to_vec();
        let (_, errors) = p.span("core.evaluate_events", range.start, || {
            engine.evaluate_events(
                &mut batch,
                engine.now(),
                &mut stage,
                &mut scratch,
                &mut notes,
            )
        });
        assert_eq!(errors, 0);
        notes.clear();
    });
    p.report_as("core.evaluate_events", "core.evaluate_events_ns", done, 1.0);
}

/// Predicate compile time, and batch evaluation per record per predicate.
fn expr_probes(
    p: &mut Prober,
    predicates: &[String],
    schema: &Arc<Schema>,
    records: &[Record],
) -> f64 {
    let mut compiled = Vec::with_capacity(predicates.len());
    for (i, text) in predicates.iter().enumerate() {
        compiled.push(p.span("expr.compile", i, || {
            let expr = evdb_expr::parse(text).expect("predicate parses");
            CompiledExpr::compile(&expr.bind_predicate(schema).expect("predicate binds"))
        }));
    }
    p.report_as("expr.compile", "expr.compile_us", predicates.len(), 1e-3);

    let (mut scratch, mut verdicts) = (BatchScratch::new(), Vec::new());
    let mut evaluated = 0usize;
    for (i, predicate) in compiled.iter().enumerate() {
        let batch = &records[(i * CHUNK) % (records.len() - CHUNK)..][..CHUNK];
        p.span("expr.eval_batch", i * CHUNK, || {
            predicate.matches_batch(batch, |r| r, &mut scratch, &mut verdicts)
        });
        evaluated += CHUNK;
    }
    p.report_as("expr.eval_batch", "expr.eval_batch_ns", evaluated, 1.0)
}

pub fn wire(report: &mut Report, seed: u64, rate: u64) {
    let throughput_evps = throughput(report);
    let mut p = Prober::new(report);
    let n = PROBE_INPUTS;
    let schema = tick_schema();
    let lines: Vec<String> = (0..n as u64)
        .map(|seq| wire::ingest_line(seed, seq, rate))
        .collect();
    let rows: Vec<Record> = (0..n as u64)
        .map(|seq| {
            let (seq, sym, price) = wire::expected_update(seed, seq);
            Record::from_iter([
                Value::Int(seq as i64),
                Value::from(sym.as_str()),
                Value::Float(price),
            ])
        })
        .collect();
    server_codec(&mut p, &lines, &schema, &rows, "feed");
    server_hub(&mut p, seed, rate, n);
    server_rtt(&mut p, seed, rate);

    let events: Vec<Event> = (0..n as u64)
        .map(|seq| tick_event(&schema, seed, seq, gen::slot_ts(seq, rate)))
        .collect();
    core_ingest(&mut p, &events);
    core_pump(&mut p, &events, &|| {
        let engine = EventServer::in_memory(ServerConfig::default()).expect("engine");
        engine
            .create_stream("ticks", tick_schema())
            .expect("stream");
        engine.register_cql("feed", wire::QUERY).expect("query");
        engine
    });
    cq_probes(&mut p, &events, &[wire::QUERY], 0);
    p.budget(
        &[("core.pump", "cq.push_event")],
        spec::workload("wire_passthrough")
            .expect("declared")
            .dominant,
        throughput_evps,
    );
}

/// The CQ runtime alone: per-event routing (what the sequential pump
/// calls), the batched entry point, and the final flush.
fn cq_probes(p: &mut Prober, events: &[Event], queries: &[&str], lateness_ms: i64) {
    let make = || {
        let runtime = StreamRuntime::new(lateness_ms);
        runtime
            .create_stream("ticks", Arc::clone(&events[0].schema))
            .expect("stream");
        for (i, cql) in queries.iter().enumerate() {
            let q = evdb_cq::cql::parse_query(cql).expect("query parses");
            let pipeline = evdb_cq::cql::compile(&q, &events[0].schema, AggMode::Incremental)
                .expect("query compiles");
            runtime
                .register_query_with(&format!("q{i}"), "ticks", pipeline, q.consistency)
                .expect("registers");
        }
        runtime
    };
    let runtime = make();
    let mut rows_out = 0usize;
    let done = p.chunks("cq.push_event", events.len(), |p, range| {
        rows_out += p.span("cq.push_event", range.start, || {
            events[range]
                .iter()
                .map(|e| runtime.push_event(e).expect("push").len())
                .sum::<usize>()
        });
    });
    p.on_path("cq.push_event", "cq.push_event_ns", done, 1.0);
    let flushed = p.span("cq.flush", done, || {
        runtime
            .flush("ticks", TimestampMs(i64::MAX / 8))
            .expect("flush")
            .len()
    });
    p.report_as("cq.flush", "cq.flush_ns", flushed, 1.0);
    std::hint::black_box(rows_out);

    let runtime = make();
    let (mut scratch, mut out) = (BatchScratch::new(), Vec::new());
    let done = p.chunks("cq.push_events", events.len(), |p, range| {
        p.span("cq.push_events", range.start, || {
            runtime.push_events(&events[range], &mut scratch, &mut out)
        });
    });
    p.report_as("cq.push_events", "cq.push_events_ns", done, 1.0);
}

pub fn rules(report: &mut Report, seed: u64, rule_set: &[RuleSpec]) {
    let throughput_evps = throughput(report);
    let mut p = Prober::new(report);
    let n = PROBE_INPUTS;
    let schema = tick_schema();
    let events: Vec<Event> = (0..n as u64)
        .map(|seq| tick_event(&schema, seed, seq, seq as i64))
        .collect();
    let records: Vec<Record> = events.iter().map(|e| e.payload.clone()).collect();

    core_ingest(&mut p, &events);
    core_pump(&mut p, &events, &|| {
        let engine = EventServer::in_memory(ServerConfig::default()).expect("engine");
        engine
            .create_stream("ticks", tick_schema())
            .expect("stream");
        crate::rules::register_rules(&engine, rule_set);
        engine.on_notification(Arc::new(|n| {
            std::hint::black_box(n);
        }));
        engine
    });

    // The matcher alone, counting its own candidates.
    let registry = Arc::new(evdb_obs::Registry::new());
    let mut matcher = IndexedMatcher::new(Arc::clone(&schema));
    matcher.bind_obs(&registry);
    for (i, rule) in rule_set.iter().enumerate() {
        let expr = evdb_expr::parse(&rule.predicate()).expect("rule parses");
        matcher
            .add_rule(Rule::new(i as u64 + 1, format!("r{i}"), expr))
            .expect("rule adds");
    }
    let done = p.chunks("rules.match_record", n, |p, range| {
        p.span("rules.match_record", range.start, || {
            for record in &records[range] {
                std::hint::black_box(matcher.match_record(record).expect("match"));
            }
        })
    });
    p.on_path("rules.match_record", "rules.match_record_ns", done, 1.0);
    let candidates_per_event =
        registry.counter("evdb_rules_candidates_total").get() as f64 / done as f64;

    let (mut scratch, mut out) = (MatchScratch::new(), Vec::new());
    let done = p.chunks("rules.match_batch", n, |p, range| {
        let batch: Vec<&Record> = records[range.clone()].iter().collect();
        p.span("rules.match_batch", range.start, || {
            matcher.match_batch(&batch, &mut scratch, &mut out)
        });
    });
    p.report_as("rules.match_batch", "rules.match_batch_ns", done, 1.0);

    let updates = 1_000;
    for i in 0..updates {
        let expr = evdb_expr::parse(&gen::churn_rule(i as u64).predicate()).expect("rule parses");
        let id = 1_000_000 + i as u64;
        p.span("rules.add_rule", i, || {
            matcher
                .add_rule(Rule::new(id, "churn", expr))
                .expect("adds")
        });
        p.span("rules.remove_rule", i, || {
            matcher.remove_rule(id).expect("removes")
        });
    }
    p.report_as("rules.add_rule", "rules.add_rule_us", updates, 1e-3);
    p.report_as("rules.remove_rule", "rules.remove_rule_us", updates, 1e-3);

    let predicates: Vec<String> = rule_set
        .iter()
        .take(1_000)
        .map(RuleSpec::predicate)
        .collect();
    let eval_ns = expr_probes(&mut p, &predicates, &schema, &records);
    // What the matcher spends verifying candidates, per event.
    p.path
        .insert("expr.eval_batch", eval_ns * candidates_per_event);

    // The notification centre alone, on notifications shaped like a rule hit.
    let center = NotificationCenter::new(VirtPolicy::default(), Arc::new(SystemClock));
    center.on_notification(Arc::new(|n| {
        std::hint::black_box(n);
    }));
    let done = p.chunks("core.notify", n, |p, range| {
        let batch: Vec<Notification> = events[range.clone()]
            .iter()
            .map(|e| Notification {
                key: "r17".into(),
                severity: 1.0,
                title: "rule 'r17' matched on ticks".into(),
                body: e.payload.to_string(),
                timestamp: e.timestamp,
                trace: Trace::default(),
                is_retraction: false,
            })
            .collect();
        p.span("core.notify", range.start, || center.notify_batch(batch));
        center.drain_delivered();
    });
    p.report_as("core.notify", "core.notify_ns", done, 1.0);

    p.budget(
        &[
            ("core.pump", "rules.match_record"),
            ("rules.match_record", "expr.eval_batch"),
        ],
        spec::workload("rules_embedded").expect("declared").dominant,
        throughput_evps,
    );
}

pub fn cq(report: &mut Report, seed: u64, rate: u64) {
    let throughput_evps = throughput(report);
    let mut p = Prober::new(report);
    // Four times the usual inputs: 6.7 s of event time at 30 000/s, so the
    // 500 ms and 5 s windows close repeatedly and the 15 s ones half fill.
    let n = 4 * PROBE_INPUTS;
    let schema = tick_schema();
    let events: Vec<Event> = (0..n as u64)
        .map(|seq| tick_event(&schema, seed, seq, gen::tick(seed, seq).event_ts(rate)))
        .collect();
    let records: Vec<Record> = events.iter().map(|e| e.payload.clone()).collect();

    core_ingest(&mut p, &events);
    core_pump(&mut p, &events, &|| {
        let engine = EventServer::in_memory(ServerConfig {
            lateness_ms: cq::LATENESS_MS,
            ..ServerConfig::default()
        })
        .expect("engine");
        engine
            .create_stream("ticks", tick_schema())
            .expect("stream");
        cq::register_queries(&engine, |_| {
            Box::new(|row, _| {
                std::hint::black_box(row);
            })
        });
        engine
    });
    let queries: Vec<&str> = cq::QUERIES.iter().map(|q| q.cql).collect();
    cq_probes(&mut p, &events, &queries, cq::LATENESS_MS);
    // The head filters of the two projections.
    expr_probes(
        &mut p,
        &["price > 185.0".to_string(), "volume <= 100".to_string()],
        &schema,
        &records,
    );
    p.budget(
        &[("core.pump", "cq.push_event")],
        spec::workload("cq_embedded").expect("declared").dominant,
        throughput_evps,
    );
}

fn order_change_event(schema: &Arc<Schema>, seed: u64, oid: u64) -> Event {
    let o = gen::order(seed, oid);
    let payload = Record::from_iter([
        Value::from("insert"),
        Value::Int(oid as i64),
        Value::Int(oid as i64),
        Value::from(gen::sym_name(o.sym).as_str()),
        Value::Int(o.qty),
        Value::Float(o.price),
    ]);
    Event::new(
        EventId(oid + 1),
        durable::STREAM,
        TimestampMs(gen::TS_BASE + oid as i64),
        payload,
        Arc::clone(schema),
    )
}

fn order_record(seed: u64, oid: u64) -> Record {
    let o = gen::order(seed, oid);
    Record::from_iter([
        Value::Int(oid as i64),
        Value::from(gen::sym_name(o.sym).as_str()),
        Value::Int(o.qty),
        Value::Float(o.price),
    ])
}

/// WAL, transactions and the segment store, each on its own files.
fn storage_probes(p: &mut Prober, dir: &Path, seed: u64, events: &[Event]) {
    // A committed insert: WAL append + fsync under `SyncPolicy::Always`.
    let commits = 2_000.min(events.len());
    let db = Database::open(dir.join("txn"), DbOptions::default()).expect("db opens");
    db.create_table("orders", durable::orders_schema(), "oid")
        .expect("table");
    let done = p.chunks("storage.txn_commit", commits, |p, range| {
        let rows: Vec<Record> = range
            .clone()
            .map(|oid| order_record(seed, oid as u64))
            .collect();
        p.span("storage.txn_commit", range.start, || {
            for row in rows {
                db.insert("orders", row).expect("insert commits");
            }
        })
    });
    p.on_path("storage.txn_commit", "storage.txn_commit_us", done, 1e-3);
    drop(db);
    let reopened = p.span("storage.db_open", 0, || {
        Database::open(dir.join("txn"), DbOptions::default()).expect("db reopens")
    });
    assert_eq!(
        reopened.table("orders").expect("table recovered").len(),
        done
    );
    p.report_as("storage.db_open", "storage.db_open_ms", 1, 1e-6);
    drop(reopened);

    // The same insert with no fsync: what the append itself costs.
    let relaxed = DbOptions {
        sync: evdb_storage::SyncPolicy::Never,
        ..DbOptions::default()
    };
    let db = Database::open(dir.join("wal"), relaxed).expect("db opens");
    db.create_table("orders", durable::orders_schema(), "oid")
        .expect("table");
    let done = p.chunks("storage.wal_append", events.len(), |p, range| {
        let rows: Vec<Record> = range
            .clone()
            .map(|oid| order_record(seed, oid as u64))
            .collect();
        p.span("storage.wal_append", range.start, || {
            for row in rows {
                db.insert("orders", row).expect("insert commits");
            }
        })
    });
    p.report_as("storage.wal_append", "storage.wal_append_us", done, 1e-3);
    drop(db);

    // The segment store: append, freeze every 4096 rows, query, replay.
    let schema = Arc::clone(&events[0].schema);
    let opts = SegmentStoreOptions {
        freeze_rows: usize::MAX,
        ..SegmentStoreOptions::default()
    };
    let store = SegmentStore::open(dir.join("segments"), schema, opts).expect("store opens");
    let freeze_rows = SegmentStoreOptions::default().freeze_rows;
    let mut freezes = 0;
    let rows = (events.len() / freeze_rows) * freeze_rows;
    for block in events[..rows].chunks(freeze_rows) {
        let first = block[0].id.0 as usize;
        p.span("storage.segment_append", first, || {
            for e in block {
                store
                    .append(e.id.0, e.timestamp, false, e.payload.clone())
                    .expect("append");
            }
        });
        p.span("storage.segment_freeze", first, || {
            store.freeze().expect("freeze")
        });
        freezes += 1;
    }
    let append_ns = p.report_as(
        "storage.segment_append",
        "storage.segment_append_ns",
        rows,
        1.0,
    );
    p.report_as(
        "storage.segment_freeze",
        "storage.segment_freeze_ms",
        freezes,
        1e-6,
    );
    p.path.insert("storage.segment_append", append_ns);
    p.path.insert(
        "storage.segment_freeze",
        p.per_item("storage.segment_freeze", rows),
    );

    let queries = 200;
    for i in 0..queries {
        let expr = evdb_expr::parse(&format!("oid = {}", i * rows / queries)).expect("predicate");
        let hits = p.span("storage.segment_query", i, || {
            store.query(&expr).expect("query")
        });
        assert_eq!(hits.len(), 1);
    }
    p.report_as(
        "storage.segment_query",
        "storage.segment_query_us",
        queries,
        1e-3,
    );
    let replayed = p.span("storage.replay", 0, || {
        store.replay(0, u64::MAX).expect("replay").len()
    });
    assert_eq!(replayed, rows);
    p.report_as("storage.replay", "storage.replay_ns_per_event", rows, 1.0);
}

/// The durable queue on a file-backed database: enqueue, then drain in
/// batches of 256 with an ack each.
fn queue_probes(p: &mut Prober, dir: &Path) -> f64 {
    let db = Database::open(dir.join("queue"), DbOptions::default()).expect("db opens");
    let queues = QueueManager::attach(db).expect("queue manager");
    let schema = Schema::of(&[
        ("key", evdb_types::DataType::Str),
        ("body", evdb_types::DataType::Str),
    ]);
    queues
        .create_queue("alerts", schema, QueueConfig::default())
        .expect("queue");
    queues.subscribe("alerts", "bench").expect("group");
    let messages = 512;
    for i in 0..messages {
        let payload = Record::from_iter([
            Value::from("big"),
            Value::from(format!("order {i}").as_str()),
        ]);
        p.span("queue.enqueue", i, || {
            queues.enqueue("alerts", payload, "probe").expect("enqueue")
        });
    }
    let enqueue_ns = p.report_as("queue.enqueue", "queue.enqueue_us", messages, 1e-3);
    let mut batches = 0;
    loop {
        let drained = p.span("queue.dequeue_ack", batches * CHUNK, || {
            let batch = queues.dequeue("alerts", "bench", CHUNK).expect("dequeue");
            for delivery in &batch {
                queues.ack(delivery).expect("ack");
            }
            batch.len()
        });
        if drained == 0 {
            break;
        }
        batches += 1;
    }
    // `queue.dequeue_ack_us` and `queue.drain_msgps` are taken from the
    // run's own drain of the real alert queue; this loop only traces it.
    enqueue_ns
}

pub fn durable(report: &mut Report, seed: u64) {
    let throughput_evps = throughput(report);
    let mut p = Prober::new(report);
    let dir = durable::scratch_dir("probe");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("probe dir");
    let n = PROBE_INPUTS;

    let lines: Vec<String> = (0..n as u64)
        .map(|oid| durable::insert_line(&gen::order(seed, oid)))
        .collect();
    let rows: Vec<Record> = (0..n as u64)
        .map(|oid| {
            let o = gen::order(seed, oid);
            Record::from_iter([
                Value::Int(oid as i64),
                Value::from(gen::sym_name(o.sym).as_str()),
                Value::Float(o.notional()),
            ])
        })
        .collect();
    server_codec(&mut p, &lines, &durable::orders_schema(), &rows, "notional");

    let change_schema =
        evdb_cq::delta::change_schema(&durable::orders_schema(), evdb_types::DataType::Int)
            .expect("change schema");
    let events: Vec<Event> = (0..n as u64)
        .map(|oid| order_change_event(&change_schema, seed, oid))
        .collect();
    storage_probes(&mut p, &dir, seed, &events);
    let enqueue_ns = queue_probes(&mut p, &dir);
    let alerts_per_event = (0..n as u64)
        .filter(|&oid| gen::order(seed, oid).alerts())
        .count() as f64
        / n as f64;
    p.path
        .insert("queue.enqueue", enqueue_ns * alerts_per_event);

    // History append as the pump does it.
    let history =
        History::open(dir.join("history-probe"), HistoryConfig::default()).expect("history opens");
    let done = p.chunks("core.history_append", n, |p, range| {
        p.span("core.history_append", range.start, || {
            for e in &events[range] {
                history.append(e).expect("append");
            }
        })
    });
    p.report_as("core.history_append", "core.history_append_ns", done, 1.0);

    // The pump of an engine configured like the workload's, fed through
    // committed inserts (staging is untimed; it is `storage.txn_commit`).
    let engine = durable::open_engine(&dir.join("pump"));
    engine
        .add_alert_rule(
            "big",
            durable::STREAM,
            &format!("qty >= {}", gen::ALERT_QTY),
            2.0,
            None,
        )
        .expect("rule");
    engine.persist_notifications("alerts").expect("alert queue");
    engine
        .register_cql("notional", durable::QUERY)
        .expect("query");
    let done = p.chunks("core.pump", 2_048, |p, range| {
        for oid in range.clone() {
            engine
                .db()
                .insert("orders", order_record(seed, oid as u64))
                .expect("insert");
        }
        let stats = p.span("core.pump", range.start, || engine.pump().expect("pump"));
        assert_eq!(stats.captured as usize, range.len());
        engine.notifications().drain_delivered();
    });
    p.on_path("core.pump", "core.pump_ns_per_event", done, 1.0);
    drop(engine);
    durable::remove_scratch(&dir);

    p.budget(
        &[
            ("core.pump", "storage.segment_append"),
            ("core.pump", "storage.segment_freeze"),
            ("core.pump", "queue.enqueue"),
        ],
        spec::workload("durable_pipeline")
            .expect("declared")
            .dominant,
        throughput_evps,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The probes run end to end on a small input and fill the budget.
    #[test]
    fn probes_attribute_time_to_named_layers() {
        let mut report = Report::default();
        report.set("throughput_evps", 50_000.0);
        let mut p = Prober::new(&mut report);
        let schema = tick_schema();
        let events: Vec<Event> = (0..600)
            .map(|seq| tick_event(&schema, 1, seq, gen::slot_ts(seq, 1_000)))
            .collect();
        core_ingest(&mut p, &events);
        cq_probes(&mut p, &events, &[wire::QUERY], 0);
        assert!(p.path["core.ingest_async"] > 0.0 && p.path["cq.push_event"] > 0.0);
        p.budget(&[], &["cq"], 50_000.0);
        let share = report.values["budget.dominant_share"];
        assert!(share > 0.0 && share < 1.0, "{share}");
        let explained = report.values["budget.busy_ns_per_event"]
            + report.values["budget.unexplained_ns_per_event"];
        assert!((explained - 20_000.0).abs() < 1e-6);
        // Every chunk span hangs off its probe's root span.
        let spans = &report.trace.spans;
        assert!(spans.iter().filter(|s| s.parent.is_none()).count() >= 3);
        assert!(spans.iter().all(|s| s
            .parent
            .is_none_or(|parent| spans[parent as usize].name == s.name)));
    }
}
