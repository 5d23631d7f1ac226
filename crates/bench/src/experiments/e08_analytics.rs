//! E8 — False positives / false negatives of expectation models
//! (§2.1.f + the paper's keywords "errors, false positives, false
//! negatives, statistics").
//!
//! Workload: a utility-meter load trace (daily cycle + noise) with
//! planted spike/dropout anomalies and ground truth. Every model scores
//! each point (band-violation score, 0 inside the band); we report the
//! confusion matrix at the natural operating point (score > 0) and the
//! ROC AUC over score thresholds.
//!
//! Expected shape: a static threshold band flags the cycle's peaks as
//! anomalies (poor precision) or misses dropouts (poor recall);
//! cycle-aware models (seasonal naive) dominate; control-chart and EWMA
//! sit in between.

use std::time::Instant;

use evdb_analytics::detector::UpdatePolicy;
use evdb_analytics::{
    auc, ConfusionMatrix, ControlChartModel, DeviationDetector, EwmaForecastModel,
    ExpectationModel, HoltTrendModel, RateOfChangeModel, SeasonalNaiveModel, ThresholdModel,
};

use super::{Scale, Table};
use crate::workloads::meter_trace;

/// A named model constructor.
type ModelFactory = Box<dyn Fn() -> Box<dyn ExpectationModel>>;

fn models() -> Vec<(&'static str, ModelFactory)> {
    vec![
        (
            "threshold[20,80]",
            Box::new(|| Box::new(ThresholdModel::new(20.0, 80.0)) as Box<dyn ExpectationModel>),
        ),
        (
            "control_chart(3σ)",
            Box::new(|| Box::new(ControlChartModel::new(3.0, 50)) as Box<dyn ExpectationModel>),
        ),
        (
            "ewma(α=.3,3σ)",
            Box::new(|| {
                Box::new(EwmaForecastModel::new(0.3, 3.0, 4.0, 20)) as Box<dyn ExpectationModel>
            }),
        ),
        (
            "holt(.4,.1,3σ)",
            Box::new(|| {
                Box::new(HoltTrendModel::new(0.4, 0.1, 3.0, 4.0, 20)) as Box<dyn ExpectationModel>
            }),
        ),
        (
            "seasonal(period)",
            Box::new(|| Box::new(SeasonalNaiveModel::new(96, 3.0, 4.0)) as Box<dyn ExpectationModel>),
        ),
        (
            "rate_of_change(4σ)",
            Box::new(|| {
                Box::new(RateOfChangeModel::new(4.0, 4.0, 20)) as Box<dyn ExpectationModel>
            }),
        ),
    ]
}

/// Run one model over the trace; returns `(confusion, scored)` where
/// `scored` pairs each post-warmup point's deviation score with truth.
pub fn evaluate_model(
    factory: &dyn Fn() -> Box<dyn ExpectationModel>,
    trace: &[(evdb_types::TimestampMs, f64, bool)],
) -> (ConfusionMatrix, Vec<(f64, bool)>) {
    let mut det = DeviationDetector::with_policy(factory(), UpdatePolicy::Always);
    let mut cm = ConfusionMatrix::default();
    let mut scored = Vec::with_capacity(trace.len());
    for (ts, v, truth) in trace {
        let dev = det.observe(*ts, *v);
        let score = dev.as_ref().map(|d| d.score).unwrap_or(0.0);
        cm.record(dev.is_some(), *truth);
        scored.push((score, *truth));
    }
    (cm, scored)
}

/// Run E8.
pub fn run(scale: Scale) -> Table {
    let n = scale.pick(5_000, 50_000);
    let trace = meter_trace(n, 96, 0.01, 81);
    let mut table = Table::new(
        "E8: model quality on planted anomalies — FP/FN per expectation model",
        &["model", "precision", "recall", "f1", "fpr_%", "auc", "ns/obs"],
    );
    for (name, factory) in models() {
        let t0 = Instant::now();
        let (cm, scored) = evaluate_model(factory.as_ref(), &trace);
        let ns_per_obs = t0.elapsed().as_nanos() as f64 / n as f64;
        table.row(vec![
            name.into(),
            format!("{:.3}", cm.precision().unwrap_or(0.0)),
            format!("{:.3}", cm.recall().unwrap_or(0.0)),
            format!("{:.3}", cm.f1().unwrap_or(0.0)),
            format!("{:.2}", cm.false_positive_rate().unwrap_or(0.0) * 100.0),
            format!("{:.3}", auc(&scored).unwrap_or(0.5)),
            format!("{ns_per_obs:.0}"),
        ]);
    }
    table.note(format!(
        "{n} readings, 96-sample daily cycle, 1% planted spike/dropout anomalies"
    ));
    table.note("cycle-aware models dominate the static threshold on both error kinds");
    table.note("ns/obs: one detector observation, online statistics and scoring included");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seasonal_beats_threshold_on_f1() {
        let t = run(Scale::Quick);
        let f1_of = |row: usize| -> f64 { t.rows[row][3].parse().unwrap() };
        let threshold_f1 = f1_of(0);
        let seasonal_f1 = f1_of(4);
        assert!(
            seasonal_f1 > threshold_f1,
            "seasonal {seasonal_f1} vs threshold {threshold_f1}"
        );
        // AUCs are sane probabilities.
        for row in &t.rows {
            let auc: f64 = row[5].parse().unwrap();
            assert!((0.0..=1.0).contains(&auc));
        }
    }
}
