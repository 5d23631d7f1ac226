//! # evdb-obs
//!
//! The unified observability layer: a process-wide [`Registry`] of named
//! counters, gauges and latency histograms that every EventDB crate
//! registers into, plus a Prometheus-style text renderer and a
//! snapshot-diff rates view.
//!
//! The paper's "management by exception" stance (§2.1) presupposes the
//! platform can report on itself — capture latencies, queue depths,
//! notification counts. This crate is that reporting substrate:
//!
//! * **Handles are cheap.** [`Counter`] is one relaxed atomic add;
//!   [`Gauge`] one atomic store; [`HistogramHandle`] a short mutex-guarded
//!   bin increment. A registry created with [`Registry::disabled`] turns
//!   every handle into a branch-predicted no-op, which is the baseline
//!   experiment E13 measures overhead against.
//! * **Names are the contract.** Metric names follow
//!   `evdb_<area>_<what>[_total|_ms]` (see DESIGN.md §D9); the renderer
//!   emits them sorted, so the exposition text is deterministic and can
//!   be golden-tested.
//! * **Bridging, not rewriting.** Existing ad-hoc atomics (e.g.
//!   `core::Metrics`) are surfaced through [`Registry::gauge_fn`]
//!   closures instead of being migrated wholesale.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use evdb_analytics::Histogram;
use parking_lot::Mutex;

/// A monotonically increasing counter handle.
///
/// Cloned handles (via `Arc`) all update the same cell; reads are
/// point-in-time. Disabled counters ignore updates.
#[derive(Debug)]
pub struct Counter {
    enabled: bool,
    value: AtomicU64,
}

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`. Zero adds skip the atomic entirely — hot paths add
    /// per-event deltas (candidates, matches, panes) that are usually
    /// zero, and a zero `fetch_add` still costs a locked RMW.
    pub fn add(&self, n: u64) {
        if self.enabled && n != 0 {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge holding an `f64`.
#[derive(Debug)]
pub struct Gauge {
    enabled: bool,
    bits: AtomicU64,
}

impl Gauge {
    /// Set the current value.
    pub fn set(&self, v: f64) {
        if self.enabled {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-range latency histogram handle with a running sum.
pub struct HistogramHandle {
    enabled: bool,
    state: Mutex<HistogramState>,
}

struct HistogramState {
    hist: Histogram,
    sum: f64,
}

impl HistogramHandle {
    /// Record one observation (typically milliseconds).
    pub fn observe(&self, v: f64) {
        if self.enabled {
            let mut s = self.state.lock();
            s.hist.observe(v.max(0.0));
            s.sum += v.max(0.0);
        }
    }

    /// Record a batch of observations under a single lock — the
    /// amortized path for hot loops that accrue samples per event but
    /// can flush per batch (see `core::metrics::StageBatch`).
    pub fn observe_many(&self, vs: &[f64]) {
        if self.enabled && !vs.is_empty() {
            let mut s = self.state.lock();
            for &v in vs {
                s.hist.observe(v.max(0.0));
                s.sum += v.max(0.0);
            }
        }
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> HistogramStats {
        let s = self.state.lock();
        HistogramStats {
            count: s.hist.count(),
            sum: s.sum,
            p50: s.hist.quantile(0.5),
            p99: s.hist.quantile(0.99),
            saturated: s.hist.saturated(),
        }
    }
}

impl fmt::Debug for HistogramHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.stats();
        f.debug_struct("HistogramHandle")
            .field("enabled", &self.enabled)
            .field("count", &st.count)
            .finish()
    }
}

/// Point-in-time summary of one histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramStats {
    /// Observations recorded (including out-of-range).
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Median, if any data.
    pub p50: Option<f64>,
    /// 99th percentile, if any data. Clamped to the range cap when
    /// `saturated` — read it as "at least".
    pub p99: Option<f64>,
    /// Observations hit the histogram cap; upper quantiles are bounds.
    pub saturated: bool,
}

type GaugeFn = Box<dyn Fn() -> f64 + Send + Sync>;

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    gauge_fns: BTreeMap<String, GaugeFn>,
    histograms: BTreeMap<String, Arc<HistogramHandle>>,
}

/// The unified metric registry every crate registers into.
///
/// Get-or-create semantics: asking for the same name twice returns the
/// same handle, so independent components can share a metric without
/// coordinating registration order.
pub struct Registry {
    enabled: bool,
    inner: Mutex<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Registry")
            .field("enabled", &self.enabled)
            .field("counters", &inner.counters.len())
            .field("gauges", &(inner.gauges.len() + inner.gauge_fns.len()))
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

impl Registry {
    /// An enabled registry: handles record.
    pub fn new() -> Registry {
        Registry {
            enabled: true,
            inner: Mutex::new(RegistryInner::default()),
        }
    }

    /// A disabled registry: handles are branch-predicted no-ops. This is
    /// the "observability off" arm of experiment E13.
    pub fn disabled() -> Registry {
        Registry {
            enabled: false,
            inner: Mutex::new(RegistryInner::default()),
        }
    }

    /// Do handles from this registry record?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Get-or-create the counter `name`. A name of the form
    /// `family{label="value"}` is one member of a labelled family (see
    /// [`Registry::render`]).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock();
        Arc::clone(inner.counters.entry(name.to_string()).or_insert_with(|| {
            Arc::new(Counter {
                enabled: self.enabled,
                value: AtomicU64::new(0),
            })
        }))
    }

    /// Get-or-create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock();
        Arc::clone(inner.gauges.entry(name.to_string()).or_insert_with(|| {
            Arc::new(Gauge {
                enabled: self.enabled,
                bits: AtomicU64::new(0f64.to_bits()),
            })
        }))
    }

    /// Register (or replace) a pull-style gauge evaluated at
    /// render/snapshot time — the bridge for pre-existing atomics.
    pub fn gauge_fn(&self, name: &str, f: impl Fn() -> f64 + Send + Sync + 'static) {
        self.inner.lock().gauge_fns.insert(name.to_string(), Box::new(f));
    }

    /// Get-or-create the histogram `name` over `[lo, hi)` with `nbins`
    /// uniform bins. The range of the first registration wins.
    pub fn histogram(&self, name: &str, lo: f64, hi: f64, nbins: usize) -> Arc<HistogramHandle> {
        let mut inner = self.inner.lock();
        Arc::clone(inner.histograms.entry(name.to_string()).or_insert_with(|| {
            Arc::new(HistogramHandle {
                enabled: self.enabled,
                state: Mutex::new(HistogramState {
                    hist: Histogram::new(lo, hi, nbins),
                    sum: 0.0,
                }),
            })
        }))
    }

    /// A latency histogram with the standard range: 0..10s in 10ms bins,
    /// matching the engine's capture→process histogram.
    pub fn latency_histogram(&self, name: &str) -> Arc<HistogramHandle> {
        self.histogram(name, 0.0, 10_000.0, 1_000)
    }

    /// Copy out every metric.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock();
        let mut gauges: BTreeMap<String, f64> = inner
            .gauges
            .iter()
            .map(|(k, g)| (k.clone(), g.get()))
            .collect();
        for (k, f) in &inner.gauge_fns {
            gauges.insert(k.clone(), f());
        }
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges,
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.stats()))
                .collect(),
        }
    }

    /// Render the Prometheus-style text exposition: `# TYPE` headers plus
    /// one sample line per value, names sorted within each kind so the
    /// output is deterministic (and golden-testable).
    pub fn render(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        // A counter name may carry a label set (`family{label="x"}`).
        // The members of a family sort next to each other, so one
        // `# TYPE` line heads them all.
        let mut family = "";
        for (name, v) in &snap.counters {
            let base = name.split('{').next().unwrap_or(name);
            if base != family {
                out.push_str(&format!("# TYPE {base} counter\n"));
                family = base;
            }
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, v) in &snap.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", fmt_f64(*v)));
        }
        for (name, h) in &snap.histograms {
            out.push_str(&format!("# TYPE {name} summary\n"));
            if let Some(p50) = h.p50 {
                out.push_str(&format!("{name}{{quantile=\"0.5\"}} {}\n", fmt_f64(p50)));
            }
            if let Some(p99) = h.p99 {
                out.push_str(&format!("{name}{{quantile=\"0.99\"}} {}\n", fmt_f64(p99)));
            }
            out.push_str(&format!("{name}_sum {}\n", fmt_f64(h.sum)));
            out.push_str(&format!("{name}_count {}\n", h.count));
            out.push_str(&format!("{name}_saturated {}\n", u64::from(h.saturated)));
        }
        out
    }
}

/// Normalize a text exposition for golden comparison: keep `# TYPE`
/// lines verbatim and replace each sample line's value with `V`, so
/// wall-clock-derived numbers don't churn fixtures. The set of metric
/// names, their kinds, and their order stay pinned. Shared by the
/// in-process exposition golden and the HTTP `/metrics` parity test.
pub fn normalize_exposition(exposition: &str) -> String {
    let mut out = String::new();
    for line in exposition.lines() {
        if line.starts_with("# ") {
            out.push_str(line);
        } else if let Some(idx) = line.rfind(' ') {
            out.push_str(&line[..idx]);
            out.push_str(" V");
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// Format a per-second rate: two decimals, trailing zeros trimmed.
fn fmt_per_sec(v: f64) -> String {
    let s = format!("{v:.2}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// Format an `f64` sample value: shortest round-trip form.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// A point-in-time copy of every metric in a [`Registry`].
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name (including pull-style gauges).
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramStats>,
}

impl Snapshot {
    /// Render the per-second rates between `earlier` and `self`, given
    /// the elapsed wall time — the periodic "rates" view for examples
    /// and the bench harness. Counters absent from `earlier` count from
    /// zero; lines are sorted by name.
    pub fn rates_since(&self, earlier: &Snapshot, elapsed_ms: i64) -> String {
        let secs = (elapsed_ms.max(1) as f64) / 1_000.0;
        let mut out = String::new();
        for (name, cur) in &self.counters {
            let prev = earlier.counters.get(name).copied().unwrap_or(0);
            let delta = cur.saturating_sub(prev);
            out.push_str(&format!("{name} {}/s\n", fmt_per_sec(delta as f64 / secs)));
        }
        for (name, cur) in &self.histograms {
            let prev = earlier.histograms.get(name).map_or(0, |h| h.count);
            let delta = cur.count.saturating_sub(prev);
            out.push_str(&format!(
                "{name}_count {}/s\n",
                fmt_per_sec(delta as f64 / secs)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_record_when_enabled() {
        let r = Registry::new();
        let c = r.counter("evdb_test_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name → same cell.
        assert_eq!(r.counter("evdb_test_total").get(), 5);

        let g = r.gauge("evdb_test_depth");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
    }

    #[test]
    fn disabled_registry_ignores_updates() {
        let r = Registry::disabled();
        assert!(!r.is_enabled());
        let c = r.counter("evdb_test_total");
        c.add(10);
        assert_eq!(c.get(), 0);
        let g = r.gauge("evdb_test_depth");
        g.set(9.0);
        assert_eq!(g.get(), 0.0);
        let h = r.latency_histogram("evdb_test_ms");
        h.observe(5.0);
        assert_eq!(h.stats().count, 0);
    }

    #[test]
    fn gauge_fn_bridges_external_state() {
        let r = Registry::new();
        let external = Arc::new(AtomicU64::new(7));
        let e2 = Arc::clone(&external);
        r.gauge_fn("evdb_bridge", move || e2.load(Ordering::Relaxed) as f64);
        assert_eq!(r.snapshot().gauges["evdb_bridge"], 7.0);
        external.store(9, Ordering::Relaxed);
        assert_eq!(r.snapshot().gauges["evdb_bridge"], 9.0);
    }

    #[test]
    fn histogram_tracks_sum_count_and_saturation() {
        let r = Registry::new();
        let h = r.histogram("evdb_test_ms", 0.0, 100.0, 10);
        for _ in 0..99 {
            h.observe(10.0);
        }
        h.observe(500.0); // past the cap
        let s = h.stats();
        assert_eq!(s.count, 100);
        assert!(s.saturated);
        assert_eq!(s.sum, 99.0 * 10.0 + 500.0);
        assert_eq!(s.p99, Some(100.0)); // clamped to the cap, not a midpoint
    }

    #[test]
    fn render_is_sorted_and_stable() {
        let r = Registry::new();
        r.counter("evdb_b_total").inc();
        r.counter("evdb_a_total").add(2);
        r.gauge("evdb_depth").set(3.0);
        r.histogram("evdb_lat_ms", 0.0, 10.0, 10).observe(4.0);
        let text = r.render();
        let a = text.find("evdb_a_total 2").unwrap();
        let b = text.find("evdb_b_total 1").unwrap();
        assert!(a < b, "counters must render name-sorted");
        assert!(text.contains("# TYPE evdb_depth gauge\nevdb_depth 3\n"));
        assert!(text.contains("# TYPE evdb_lat_ms summary"));
        assert!(text.contains("evdb_lat_ms{quantile=\"0.5\"}"));
        assert!(text.contains("evdb_lat_ms_count 1"));
        assert!(text.contains("evdb_lat_ms_saturated 0"));
        assert_eq!(text, r.render(), "rendering must be deterministic");
    }

    #[test]
    fn labelled_counters_share_one_type_line() {
        let r = Registry::new();
        r.counter("evdb_wake_total{cause=\"work\"}").add(3);
        r.counter("evdb_wake_total{cause=\"tick\"}").inc();
        r.counter("evdb_wake_total_other").inc();
        assert_eq!(
            r.render(),
            "# TYPE evdb_wake_total_other counter\nevdb_wake_total_other 1\n\
             # TYPE evdb_wake_total counter\n\
             evdb_wake_total{cause=\"tick\"} 1\nevdb_wake_total{cause=\"work\"} 3\n"
        );
    }

    #[test]
    fn rates_view_diffs_counters_per_second() {
        let r = Registry::new();
        let c = r.counter("evdb_events_total");
        c.add(10);
        let before = r.snapshot();
        c.add(30);
        let after = r.snapshot();
        let rates = after.rates_since(&before, 2_000);
        assert!(rates.contains("evdb_events_total 15/s"), "got: {rates}");
    }
}
