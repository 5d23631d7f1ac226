//! E3 — "Large rule sets and Continuous Queries" (§2.2.c.iv.2.a):
//! matching one event against 10²…10⁵⁺ rules, indexed vs scan.
//!
//! Expected shape: scan cost grows linearly with the rule count; indexed
//! cost grows with the rules an event can match on two attributes plus
//! the planted unindexable share, so the gap widens to orders of
//! magnitude at large rule counts. `cand/evt` is the matcher's own count
//! of rule predicates it evaluated per event (index candidates +
//! unindexed rules), next to the matches they produced.

use std::sync::Arc;
use std::time::Instant;

use evdb_core::metrics::Registry;
use evdb_rules::{IndexedMatcher, Matcher, Rule, ScanMatcher};

use super::{Scale, Table};
use crate::workloads::{market_ticks, tick_rules, tick_schema};

/// Build both matchers over the same generated rule set.
pub fn build_matchers(nrules: usize, seed: u64) -> (ScanMatcher, IndexedMatcher) {
    let schema = tick_schema();
    let rules = tick_rules(nrules, 64, 0.05, seed);
    let mut scan = ScanMatcher::new(Arc::clone(&schema));
    let mut idx = IndexedMatcher::new(schema);
    for (i, r) in rules.into_iter().enumerate() {
        scan.add_rule(Rule::new(i as u64, "", r.clone())).unwrap();
        idx.add_rule(Rule::new(i as u64, "", r)).unwrap();
    }
    (scan, idx)
}

fn us_per_event(m: &dyn Matcher, events: &[evdb_types::Record]) -> (f64, u64) {
    let t0 = Instant::now();
    let mut matches = 0u64;
    for e in events {
        matches += m.match_record(e).unwrap().len() as u64;
    }
    (
        t0.elapsed().as_secs_f64() * 1e6 / events.len() as f64,
        matches,
    )
}

/// Run E3.
pub fn run(scale: Scale) -> Table {
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![100, 1_000, 5_000],
        Scale::Full => vec![100, 1_000, 10_000, 100_000],
    };
    let nevents = scale.pick(200, 2_000);
    let events: Vec<evdb_types::Record> = market_ticks(nevents, 64, 1, 11)
        .iter()
        .map(|t| t.record())
        .collect();

    let mut table = Table::new(
        "E3: rule-set scalability — scan vs predicate-indexed matching",
        &[
            "rules",
            "scan_us/evt",
            "indexed_us/evt",
            "speedup",
            "cand/evt",
            "matches",
        ],
    );
    for n in sizes {
        let (scan, mut idx) = build_matchers(n, 21);
        let registry = Registry::new();
        idx.bind_obs(&registry);
        let (scan_us, m1) = us_per_event(&scan, &events);
        let (idx_us, m2) = us_per_event(&idx, &events);
        assert_eq!(m1, m2, "matchers must agree");
        let candidates = registry.counter("evdb_rules_candidates_total").get();
        table.row(vec![
            n.to_string(),
            format!("{scan_us:.1}"),
            format!("{idx_us:.1}"),
            format!("{:.1}x", scan_us / idx_us),
            format!("{:.1}", candidates as f64 / nevents as f64),
            m1.to_string(),
        ]);
    }
    table.note(format!("{nevents} events, 64 symbols, 5% residual-only rules"));
    table.note("scan grows ~linearly with rules; indexed with two-attribute candidates + the residual-only 5% (D1)");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexed_beats_scan_at_size() {
        let t = run(Scale::Quick);
        // At the largest size the speedup should exceed 2x.
        let last = t.rows.last().unwrap();
        let speedup: f64 = last[3].trim_end_matches('x').parse().unwrap();
        assert!(speedup > 2.0, "speedup {speedup}");
    }
}
