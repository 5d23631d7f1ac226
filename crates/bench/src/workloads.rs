//! Deterministic workload generators.
//!
//! These stand in for the production feeds the paper's use cases assume
//! (market data, utility meters, hazmat sensors) — see the substitution
//! table in DESIGN.md. Anomaly generators return ground-truth labels.

use std::sync::Arc;

use evdb_expr::{parse, Expr};
use evdb_types::{DataType, Record, Schema, TimestampMs, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Schema of market tick events: `(sym STR, px FLOAT, qty INT)`.
pub fn tick_schema() -> Arc<Schema> {
    Schema::of(&[
        ("sym", DataType::Str),
        ("px", DataType::Float),
        ("qty", DataType::Int),
    ])
}

/// One generated tick.
#[derive(Debug, Clone)]
pub struct Tick {
    /// Event time.
    pub ts: TimestampMs,
    /// Symbol.
    pub sym: String,
    /// Price.
    pub px: f64,
    /// Quantity.
    pub qty: i64,
}

impl Tick {
    /// As a record of [`tick_schema`].
    pub fn record(&self) -> Record {
        Record::from_iter([
            Value::from(self.sym.as_str()),
            Value::Float(self.px),
            Value::Int(self.qty),
        ])
    }
}

/// Random-walk market ticks over `nsyms` symbols, one tick per
/// `interval_ms`, round-robin across symbols.
pub fn market_ticks(n: usize, nsyms: usize, interval_ms: i64, seed: u64) -> Vec<Tick> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut prices: Vec<f64> = (0..nsyms).map(|i| 50.0 + 10.0 * i as f64).collect();
    (0..n)
        .map(|i| {
            let s = i % nsyms;
            prices[s] = (prices[s] + rng.gen_range(-0.5..0.5)).max(1.0);
            Tick {
                ts: TimestampMs(i as i64 * interval_ms),
                sym: format!("S{s}"),
                px: (prices[s] * 100.0).round() / 100.0,
                qty: rng.gen_range(1..1_000),
            }
        })
        .collect()
}

/// Schema of meter readings: `(meter STR, kw FLOAT)`.
pub fn meter_schema() -> Arc<Schema> {
    Schema::of(&[("meter", DataType::Str), ("kw", DataType::Float)])
}

/// A labelled observation: `(ts, value, is_anomaly)`.
pub type LabelledPoint = (TimestampMs, f64, bool);

/// Utility-meter load trace: daily sinusoidal cycle plus Gaussian-ish
/// noise, with `anomaly_rate` of points replaced by spikes/dropouts.
/// Returns points with ground-truth labels (E8's input).
pub fn meter_trace(
    n: usize,
    period: usize,
    anomaly_rate: f64,
    seed: u64,
) -> Vec<LabelledPoint> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let phase = (i % period) as f64 / period as f64 * std::f64::consts::TAU;
            let base = 50.0 + 30.0 * phase.sin();
            let noise: f64 = rng.gen_range(-2.0..2.0);
            let anomalous = rng.gen::<f64>() < anomaly_rate;
            let v = if anomalous {
                if rng.gen::<bool>() {
                    base + rng.gen_range(25.0..60.0) // spike
                } else {
                    (base - rng.gen_range(25.0..50.0)).max(0.0) // dropout
                }
            } else {
                base + noise
            };
            (TimestampMs(i as i64 * 1_000), v, anomalous)
        })
        .collect()
}

/// Generate `n` rules over [`tick_schema`], a controlled mix:
/// equality-on-symbol + price range (indexable), a share of IN lists,
/// and `residual_share` of rules with non-indexable predicates.
/// `nsyms` controls selectivity (more symbols = fewer rules per event).
pub fn tick_rules(n: usize, nsyms: usize, residual_share: f64, seed: u64) -> Vec<Expr> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let sym = rng.gen_range(0..nsyms);
            if rng.gen::<f64>() < residual_share {
                // Non-indexable: function call or cross-field arithmetic.
                let t = rng.gen_range(0..10_000) as f64 / 10.0;
                parse(&format!("px * 2 > qty + {t}")).expect("valid rule")
            } else {
                let lo = rng.gen_range(0.0..140.0);
                let hi = lo + rng.gen_range(0.5..20.0);
                match rng.gen_range(0..3) {
                    0 => parse(&format!("sym = 'S{sym}' AND px > {lo:.2}")).expect("valid"),
                    1 => parse(&format!(
                        "sym = 'S{sym}' AND px BETWEEN {lo:.2} AND {hi:.2}"
                    ))
                    .expect("valid"),
                    _ => {
                        let s2 = rng.gen_range(0..nsyms);
                        parse(&format!(
                            "sym IN ('S{sym}', 'S{s2}') AND qty >= {}",
                            rng.gen_range(0..900)
                        ))
                        .expect("valid")
                    }
                }
            }
        })
        .collect()
}

/// [`tick_rules`] with every twentieth rule replaced by a **keyed** one:
/// `sym LIKE 'S<d>%' AND qty % 97 = k` — no indexable field equality,
/// but a computed left side the whole 5 % share, differing only in `k`
/// (the shape of `evbench`'s residual rules; D1's expression keys).
pub fn tick_rules_keyed(n: usize, nsyms: usize, residual_share: f64, seed: u64) -> Vec<Expr> {
    let mut rules = tick_rules(n, nsyms, residual_share, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x006b_6579);
    for rule in rules.iter_mut().skip(19).step_by(20) {
        let (digit, k) = (rng.gen_range(1..7), rng.gen_range(0..97));
        *rule = parse(&format!("sym LIKE 'S{digit}%' AND qty % 97 = {k}")).expect("valid");
    }
    rules
}

/// `n` rules over `n` different left sides (`qty % 2 = 1`, `qty % 3 =
/// 1`, …): the worst case of D1's expression keys, where nothing is
/// shared and matching evaluates one key per rule.
pub fn distinct_lhs_rules(n: usize) -> Vec<Expr> {
    (0..n)
        .map(|i| parse(&format!("qty % {} = 1", i + 2)).expect("valid"))
        .collect()
}

/// Schema of A/B/C kind events used by pattern benches:
/// `(kind STR, v FLOAT)`.
pub fn kind_schema() -> Arc<Schema> {
    Schema::of(&[("kind", DataType::Str), ("v", DataType::Float)])
}

/// Uniform random kind events (`A`..`D`), one per `interval_ms`.
pub fn kind_events(n: usize, interval_ms: i64, seed: u64) -> Vec<(TimestampMs, Record)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let kind = ["A", "B", "C", "D"][rng.gen_range(0..4)];
            (
                TimestampMs(i as i64 * interval_ms),
                Record::from_iter([Value::from(kind), Value::Float(rng.gen_range(0.0..100.0))]),
            )
        })
        .collect()
}

/// Schema for hazmat sensor events (ChemSecure):
/// `(site STR, zone STR, chem STR, level FLOAT)`.
pub fn hazmat_schema() -> Arc<Schema> {
    Schema::of(&[
        ("site", DataType::Str),
        ("zone", DataType::Str),
        ("chem", DataType::Str),
        ("level", DataType::Float),
    ])
}

/// Hazmat sensor readings; `incident_rate` of them exceed the danger
/// threshold (level > 80). Returns records + ground truth.
pub fn hazmat_events(n: usize, incident_rate: f64, seed: u64) -> Vec<(Record, bool)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let incident = rng.gen::<f64>() < incident_rate;
            let level = if incident {
                rng.gen_range(80.5..150.0)
            } else {
                rng.gen_range(0.0..70.0)
            };
            let rec = Record::from_iter([
                Value::from(format!("site{}", rng.gen_range(0..3))),
                Value::from(format!("zone{}", rng.gen_range(0..8))),
                Value::from(["CL2", "NH3", "H2S"][rng.gen_range(0..3)]),
                Value::Float((level * 10.0f64).round() / 10.0),
            ]);
            (rec, incident)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let a = market_ticks(100, 4, 10, 7);
        let b = market_ticks(100, 4, 10, 7);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.px == y.px && x.sym == y.sym));
        let c = market_ticks(100, 4, 10, 8);
        assert!(a.iter().zip(&c).any(|(x, y)| x.px != y.px));
    }

    #[test]
    fn ticks_conform_to_schema() {
        let schema = tick_schema();
        for t in market_ticks(50, 3, 1, 1) {
            schema.validate(&t.record()).unwrap();
        }
    }

    #[test]
    fn meter_trace_has_both_classes() {
        let trace = meter_trace(2_000, 96, 0.02, 3);
        let anomalies = trace.iter().filter(|(_, _, a)| *a).count();
        assert!(anomalies > 10 && anomalies < 200, "{anomalies}");
    }

    #[test]
    fn rules_parse_and_mix() {
        let rules = tick_rules(200, 8, 0.2, 5);
        assert_eq!(rules.len(), 200);
        let residuals = rules
            .iter()
            .filter(|r| evdb_expr::analyze(r).constraints.is_empty())
            .count();
        assert!(residuals > 10 && residuals < 100, "{residuals}");
    }

    #[test]
    fn keyed_and_distinct_rule_sets_have_the_shape_they_claim() {
        let share = |rules: &[Expr]| {
            let keys: Vec<String> = rules
                .iter()
                .flat_map(|r| evdb_expr::analyze(r).keys)
                .map(|k| k.constraint.field().to_string())
                .collect();
            let mut distinct = keys.clone();
            distinct.sort();
            distinct.dedup();
            (keys.len(), distinct.len())
        };
        assert_eq!(share(&tick_rules_keyed(200, 8, 0.0, 5)), (10, 1));
        assert_eq!(share(&distinct_lhs_rules(50)), (50, 50));
    }

    #[test]
    fn hazmat_ground_truth_matches_threshold() {
        for (rec, incident) in hazmat_events(500, 0.05, 9) {
            let level = rec.get(3).unwrap().as_f64().unwrap();
            assert_eq!(incident, level > 80.0, "level {level}");
        }
    }
}
