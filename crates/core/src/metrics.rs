//! Engine metrics: cheap atomic counters plus a latency histogram.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use evdb_analytics::Histogram;
use evdb_types::Stage;
use parking_lot::Mutex;

pub use evdb_obs::{Counter, Gauge, HistogramHandle, HistogramStats, Registry, Snapshot};

/// Per-pipeline-stage observability handles: one event counter and one
/// latency histogram per stage (`evdb_stage_<stage>_events_total`,
/// `evdb_stage_<stage>_latency_ms`). All handles are no-ops when the
/// registry is disabled; `enabled` lets hot paths skip even the clock
/// reads that feed them.
pub struct StageObs {
    /// False when the registry is disabled.
    pub enabled: bool,
    counters: [Arc<Counter>; 4],
    latencies: [Arc<HistogramHandle>; 4],
}

impl StageObs {
    /// Register the per-stage metrics with `registry`.
    pub fn bind(registry: &Registry) -> StageObs {
        let counters =
            Stage::ALL.map(|s| registry.counter(&format!("evdb_stage_{}_events_total", s.name())));
        let latencies = Stage::ALL
            .map(|s| registry.latency_histogram(&format!("evdb_stage_{}_latency_ms", s.name())));
        StageObs {
            enabled: registry.is_enabled(),
            counters,
            latencies,
        }
    }

    /// Count one event through `stage` with its latency sample (ms).
    /// Per-call cost is an atomic add plus a mutex-guarded histogram
    /// bin increment — fine for one-off sites (inline ingest); batch
    /// loops should accrue into a [`StageBatch`] and
    /// [`StageObs::flush`] once instead.
    pub fn observe(&self, stage: Stage, latency_ms: f64) {
        if !self.enabled {
            return;
        }
        self.counters[stage as usize].inc();
        self.latencies[stage as usize].observe(latency_ms);
    }

    /// Flush a batch of stage samples: one counter add and one
    /// histogram lock per stage that saw samples this batch, instead of
    /// per event. Clears the batch, retaining its capacity for reuse.
    pub fn flush(&self, batch: &mut StageBatch) {
        if !self.enabled {
            return;
        }
        for (i, samples) in batch.samples.iter_mut().enumerate() {
            if !samples.is_empty() {
                self.counters[i].add(samples.len() as u64);
                self.latencies[i].observe_many(samples);
                samples.clear();
            }
        }
    }
}

/// A bridged gauge's name and how to read it off its source.
pub(crate) type GaugeRead<T> = (&'static str, fn(&T) -> f64);

/// Bridge pull-style gauges over a component's own counters, so the text
/// exposition covers the whole engine without double-counting: each
/// `(name, read)` becomes a gauge that applies `read` to `source` at
/// render time. Each stage bridges its own share when it is built.
pub(crate) fn bridge<T: Send + Sync + 'static>(
    registry: &Registry,
    source: &Arc<T>,
    gauges: &[GaugeRead<T>],
) {
    for &(name, read) in gauges {
        let source = Arc::clone(source);
        registry.gauge_fn(name, move || read(&source));
    }
}

/// A counter's current value as a gauge reading.
pub(crate) fn relaxed(counter: &AtomicU64) -> f64 {
    counter.load(Ordering::Relaxed) as f64
}

/// Per-batch scratch for stage latency samples. Hot loops (the cycle)
/// push one sample per event per stage and
/// flush once per batch through [`StageObs::flush`], so the per-event
/// instrumentation cost is a `Vec` push rather than an atomic add plus
/// a histogram lock — the difference between a ~6% and a ~1% tax in
/// experiment E13. Callers skip pushes entirely when
/// [`StageObs::enabled`] is false.
#[derive(Debug, Default)]
pub struct StageBatch {
    samples: [Vec<f64>; 4],
}

impl StageBatch {
    /// Queue one latency sample (ms) for `stage`.
    pub fn push(&mut self, stage: Stage, latency_ms: f64) {
        self.samples[stage as usize].push(latency_ms);
    }
}

/// Live counters (lock-free) and a capture-to-process latency histogram.
#[derive(Debug)]
pub struct Metrics {
    /// Change events captured (all mechanisms).
    pub events_captured: AtomicU64,
    /// Events pushed through the stream runtime.
    pub events_processed: AtomicU64,
    /// Derived events produced by continuous queries.
    pub derived_events: AtomicU64,
    /// Deviations detected.
    pub deviations: AtomicU64,
    /// Notifications actually delivered.
    pub notifications: AtomicU64,
    /// Notifications suppressed by the VIRT filter.
    pub suppressed: AtomicU64,
    latency: Mutex<Histogram>,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsSnapshot {
    /// Change events captured.
    pub events_captured: u64,
    /// Events pushed through the runtime.
    pub events_processed: u64,
    /// Derived events from queries.
    pub derived_events: u64,
    /// Deviations detected.
    pub deviations: u64,
    /// Notifications delivered.
    pub notifications: u64,
    /// Notifications suppressed.
    pub suppressed: u64,
    /// Median capture→process latency (ms), if observed.
    pub latency_p50_ms: Option<f64>,
    /// p99 capture→process latency (ms), if observed.
    pub latency_p99_ms: Option<f64>,
    /// True when latency samples hit the histogram cap: the p99 is then a
    /// clamped lower bound, not a trustworthy quantile.
    pub latency_saturated: bool,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            events_captured: AtomicU64::new(0),
            events_processed: AtomicU64::new(0),
            derived_events: AtomicU64::new(0),
            deviations: AtomicU64::new(0),
            notifications: AtomicU64::new(0),
            suppressed: AtomicU64::new(0),
            // 0..10s in 10ms bins covers poll-driven capture latencies.
            latency: Mutex::new(Histogram::new(0.0, 10_000.0, 1_000)),
        }
    }
}

impl Metrics {
    /// Record one capture→process latency sample (ms).
    pub fn observe_latency(&self, ms: f64) {
        self.latency.lock().observe(ms.max(0.0));
    }

    /// Copy out the counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let latency = self.latency.lock();
        MetricsSnapshot {
            events_captured: self.events_captured.load(Ordering::Relaxed),
            events_processed: self.events_processed.load(Ordering::Relaxed),
            derived_events: self.derived_events.load(Ordering::Relaxed),
            deviations: self.deviations.load(Ordering::Relaxed),
            notifications: self.notifications.load(Ordering::Relaxed),
            suppressed: self.suppressed.load(Ordering::Relaxed),
            latency_p50_ms: latency.quantile(0.5),
            latency_p99_ms: latency.quantile(0.99),
            latency_saturated: latency.saturated(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters_and_latency() {
        let m = Metrics::default();
        m.events_captured.fetch_add(3, Ordering::Relaxed);
        m.observe_latency(20.0);
        m.observe_latency(40.0);
        let s = m.snapshot();
        assert_eq!(s.events_captured, 3);
        assert_eq!(s.events_processed, 0);
        let p50 = s.latency_p50_ms.unwrap();
        assert!(p50 > 0.0 && p50 < 50.0);
    }

    #[test]
    fn snapshot_flags_saturated_latency() {
        let m = Metrics::default();
        for _ in 0..99 {
            m.observe_latency(5.0);
        }
        assert!(!m.snapshot().latency_saturated);
        for _ in 0..2 {
            m.observe_latency(50_000.0); // beyond the 10s cap
        }
        let s = m.snapshot();
        assert!(s.latency_saturated);
        // And the quantile fix keeps the clamped p99 at the cap rather
        // than an in-range midpoint.
        assert_eq!(s.latency_p99_ms, Some(10_000.0));
    }
}
