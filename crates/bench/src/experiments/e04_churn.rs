//! E4 — "Frequently changing rules sets" (§2.2.c.iv.2.b): sustain rule
//! add/remove churn interleaved with event matching.
//!
//! Expected shape: the indexed matcher's add/remove cost is O(rule's own
//! constraints) — independent of the total rule count — so matching
//! throughput holds as churn rises; an engine that rebuilt its index per
//! change would collapse. The `keyed` mix replaces 5 % of the resident
//! and of the churned rules with `sym LIKE … AND qty % 97 = k` (D1's
//! expression keys): posting under an interned key must cost what
//! posting under a field costs, so its add/remove figures are asserted
//! in-run to stay within 2× of the band-only ones.

use std::sync::Arc;
use std::time::Instant;

use evdb_rules::{IndexedMatcher, Matcher, Rule};

use super::{Scale, Table};
use crate::workloads::{market_ticks, tick_rules, tick_rules_keyed, tick_schema};

/// Run E4.
pub fn run(scale: Scale) -> Table {
    let base_rules = scale.pick(2_000, 20_000);
    let iterations = scale.pick(2_000, 20_000);
    let mut table = Table::new(
        "E4: rule churn — interleaved add/remove/match on the indexed matcher",
        &[
            "mix",
            "churn/match",
            "add_us",
            "remove_us",
            "match_us",
            "ops/s",
        ],
    );

    let schema = tick_schema();
    let events: Vec<evdb_types::Record> = market_ticks(512, 64, 1, 31)
        .iter()
        .map(|t| t.record())
        .collect();

    type RuleGen = fn(usize, usize, f64, u64) -> Vec<evdb_expr::Expr>;
    let mixes: [(&str, RuleGen); 2] = [("band", tick_rules), ("keyed", tick_rules_keyed)];
    // (add_us, remove_us) of the band mix at the heaviest churn.
    let mut band_cost = None;
    let arms = mixes
        .iter()
        .flat_map(|(mix, generate)| [0usize, 1, 4, 16].map(|c| (*mix, generate, c)));
    for (mix, generate, churn_per_match) in arms {
        let mut m = IndexedMatcher::new(Arc::clone(&schema));
        let rules = generate(base_rules, 64, 0.05, 41);
        for (i, r) in rules.iter().enumerate() {
            m.add_rule(Rule::new(i as u64, "", r.clone())).unwrap();
        }
        let fresh = generate(iterations * churn_per_match.max(1), 64, 0.05, 42);

        let mut next_id = base_rules as u64;
        let mut oldest = 0u64;
        let (mut add_us, mut rem_us, mut match_us) = (0.0f64, 0.0f64, 0.0f64);
        let (mut adds, mut rems, mut matches) = (0u64, 0u64, 0u64);
        let wall = Instant::now();
        for i in 0..iterations {
            for c in 0..churn_per_match {
                let rule = fresh[(i * churn_per_match + c) % fresh.len()].clone();
                let t0 = Instant::now();
                m.add_rule(Rule::new(next_id, "", rule)).unwrap();
                add_us += t0.elapsed().as_secs_f64() * 1e6;
                adds += 1;
                next_id += 1;
                let t0 = Instant::now();
                m.remove_rule(oldest).unwrap();
                rem_us += t0.elapsed().as_secs_f64() * 1e6;
                rems += 1;
                oldest += 1;
            }
            let ev = &events[i % events.len()];
            let t0 = Instant::now();
            matches += m.match_record(ev).unwrap().len() as u64;
            match_us += t0.elapsed().as_secs_f64() * 1e6;
        }
        let total_ops = iterations + adds as usize + rems as usize;
        if churn_per_match == 16 {
            let cost = (add_us / adds as f64, rem_us / rems as f64);
            let (band_add, band_rem) = *band_cost.get_or_insert(cost);
            // Half a microsecond of slack: these are ~2 µs operations
            // timed one `Instant` pair each.
            assert!(
                cost.0 <= 2.0 * band_add + 0.5 && cost.1 <= 2.0 * band_rem + 0.5,
                "{mix} churn costs add {:.2} / remove {:.2} us, band-only {band_add:.2} / {band_rem:.2}",
                cost.0,
                cost.1
            );
        }
        table.row(vec![
            mix.to_string(),
            churn_per_match.to_string(),
            if adds > 0 {
                format!("{:.1}", add_us / adds as f64)
            } else {
                "-".into()
            },
            if rems > 0 {
                format!("{:.1}", rem_us / rems as f64)
            } else {
                "-".into()
            },
            format!("{:.1}", match_us / iterations as f64),
            crate::fmt_rate(total_ops as f64 / wall.elapsed().as_secs_f64()),
        ]);
        let _ = matches;
    }
    table.note(format!(
        "{base_rules} resident rules, {iterations} match iterations; churn = rules replaced per match"
    ));
    table.note("per-op cost stays flat as churn rises: updates touch only the changed rule's postings");
    table.note("keyed = 5% `sym LIKE 'S<d>%' AND qty % 97 = k` in resident and churned rules; add/remove asserted within 2x of band");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_experiment_runs() {
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 8);
        // Match cost with churn 16 should stay within ~5x of churn 0
        // (flat in rule count; allow generous noise), in both mixes.
        for mix in t.rows.chunks(4) {
            let m0: f64 = mix[0][4].parse().unwrap();
            let m16: f64 = mix[3][4].parse().unwrap();
            assert!(
                m16 < m0 * 5.0 + 50.0,
                "{} match degraded: {m0} -> {m16}",
                mix[0][0]
            );
        }
    }
}
