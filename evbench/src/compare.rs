//! `evbench compare <a.json> <b.json>`: hold two recorded sets of runs
//! (`--out` files) against the bounds declared in `BENCHMARK.json`, one
//! row per (workload, end-to-end metric). Also prints the spreads of a
//! `--repeat` set, which is how those bounds are measured.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::{self, Json};
use crate::spec::{Better, Metric, END_TO_END, WORKLOADS};
use crate::stats::{median, quartile_spread};

/// `(workload, metric) -> one value per run`.
type Values = BTreeMap<(String, String), Vec<f64>>;

fn collect(runs: &[Json]) -> Values {
    let mut values = Values::new();
    for run in runs {
        let Some(workload) = run.get("workload").and_then(Json::as_str) else {
            continue;
        };
        let Some(Json::Obj(metrics)) = run.get("result").and_then(|r| r.get("metrics")) else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    values
}

fn load(path: &str) -> Result<(Values, bool), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or(format!("{path}: no \"runs\" array"))?;
    Ok((collect(runs), doc.get("quick") == Some(&Json::Bool(true))))
}

/// Declared regression bound of each end-to-end metric.
fn bounds(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{path}: {e} (run from the repository root)"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or(format!("{path}: no \"end_to_end\""))?;
    Ok(list
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// Quartile spread of a set of runs; a single run has none to show.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        0.0
    } else {
        quartile_spread(values)
    }
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs of one side scatter more than the bound: no verdict.
    Unresolved,
}

/// By how much of the base's median `change` is worse (negative: better).
pub fn worse_by(better: Better, base: f64, change: f64) -> f64 {
    match better {
        Better::Lower => (change - base) / base,
        Better::Higher => (base - change) / base,
    }
}

pub fn verdict(better: Better, a: &[f64], b: &[f64], bound: f64) -> Verdict {
    if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else if worse_by(better, median(a), median(b)) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("usage: evbench compare <a.json> <b.json>".into());
    };
    let (a, a_quick) = load(a_path)?;
    let (b, b_quick) = load(b_path)?;
    let bounds = bounds("BENCHMARK.json")?;
    if a_quick || b_quick {
        println!("note: a --quick record is a smoke run; its numbers settle nothing");
    }
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "a median", "b median", "b/a", "bound", "spread"
    );
    let mut regressed = 0;
    for w in WORKLOADS {
        for m in END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(av), Some(bv)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let bound = bounds
                .get(m.name)
                .copied()
                .ok_or(format!("BENCHMARK.json declares no bound for {}", m.name))?;
            let v = verdict(m.better, av, bv, bound);
            regressed += (v == Verdict::Regressed) as u32;
            println!(
                "{:<18} {:<16} {:>14.4} {:>14.4} {:>9.4} {:>7.3} {:>8.3}  {}",
                w.name,
                m.name,
                median(av),
                median(bv),
                median(bv) / median(av),
                bound,
                spread(av).max(spread(bv)),
                format!("{v:?}").to_lowercase()
            );
        }
    }
    println!("b/a: median of b over median of a (the base); spread: widest quartile spread of either side over its median");
    Ok(if regressed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// After `--repeat n`: each metric's median and quartile spread over the
/// n runs, per workload.
pub fn print_spreads(records: &[String], list: &[Metric], repeat: u64) {
    let runs: Vec<Json> = records.iter().filter_map(|r| json::parse(r).ok()).collect();
    let values = collect(&runs);
    eprintln!("\n== spread over {repeat} runs per workload (quartile distance / median)");
    eprintln!(
        "{:<18} {:<34} {:>16} {:>8}",
        "workload", "metric", "median", "spread"
    );
    for w in WORKLOADS {
        for m in list {
            if let Some(v) = values.get(&(w.name.to_string(), m.name.to_string())) {
                let spread = if median(v) != 0.0 { spread(v) } else { 0.0 };
                eprintln!(
                    "{:<18} {:<34} {:>16.4} {:>8.3}",
                    w.name,
                    m.name,
                    median(v),
                    spread
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [112.0, 113.0, 111.0, 112.5, 111.5];
        // 12 % more latency against a 10 % bound; 12 % more throughput is fine.
        assert_eq!(
            verdict(Better::Lower, &steady, &slower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(verdict(Better::Higher, &steady, &slower, 0.10), Verdict::Ok);
        assert_eq!(
            verdict(Better::Higher, &slower, &steady, 0.10),
            Verdict::Regressed
        );
        assert_eq!(verdict(Better::Lower, &steady, &slower, 0.15), Verdict::Ok);
        // Runs that scatter more than the bound settle nothing either way.
        let noisy = [80.0, 100.0, 125.0, 90.0, 140.0];
        assert_eq!(
            verdict(Better::Lower, &steady, &noisy, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(Better::Lower, &noisy, &steady, 0.10),
            Verdict::Unresolved
        );
        // One run per side: no spread to judge, the medians decide.
        assert_eq!(
            verdict(Better::Lower, &[100.0], &[120.0], 0.10),
            Verdict::Regressed
        );
        assert!((worse_by(Better::Higher, 200.0, 150.0) - 0.25).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 200.0, 150.0) + 0.25).abs() < 1e-12);
    }

    #[test]
    fn records_are_collected_per_workload_and_metric() {
        let record = |w: &str, v: f64| {
            json::parse(&format!(
                "{{\"workload\": \"{w}\", \"repeat\": 0, \"seed\": 1, \"result\": {{\"correct\": true, \"attempted\": 5, \
                 \"failed\": 0, \"metrics\": {{\"setup_s\": {{\"value\": {v}, \"unit\": \"s\"}}}}}}}}"
            ))
            .unwrap()
        };
        let values = collect(&[
            record("cq_embedded", 1.0),
            record("cq_embedded", 3.0),
            record("rules_embedded", 2.0),
        ]);
        assert_eq!(
            values[&("cq_embedded".to_string(), "setup_s".to_string())],
            [1.0, 3.0]
        );
        assert_eq!(values.len(), 2);
    }
}
