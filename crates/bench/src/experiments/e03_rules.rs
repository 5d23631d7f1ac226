//! E3 — "Large rule sets and Continuous Queries" (§2.2.c.iv.2.a):
//! matching one event against 10²…10⁵⁺ rules, indexed vs scan.
//!
//! Expected shape: scan cost grows linearly with the rule count; indexed
//! cost grows with the rules an event can match on two attributes plus
//! the planted unindexable share, so the gap widens to orders of
//! magnitude at large rule counts. `cand/evt` is the matcher's own count
//! of rules it admitted per event (index candidates + unindexed rules),
//! next to the matches they produced.
//!
//! Three arms (D1):
//!
//! * `band` — the generator the experiment has always used: symbol
//!   equality + price range, IN lists, 5 % residual-only rules.
//! * `keyed` — the same with 5 % `sym LIKE … AND qty % 97 = k` rules:
//!   no field equality, but one computed left side shared by the whole
//!   share. With expression keys the matcher evaluates `qty % 97` once
//!   per event and hashes on it; before, all of those whose LIKE range
//!   held the symbol were verified.
//! * `distinct-lhs` — N rules over N *different* left sides, the
//!   documented worst case: nothing is shared, so the indexed matcher
//!   evaluates N keys per event and hashes on each. `always_us/evt` is
//!   what it replaces: the always-evaluate list these rules sat on
//!   before, one batch-VM pass per rule — to be read beside
//!   `batch_us/evt`, the indexed matcher's `match_batch` (64-record
//!   batches, the pump's path).

use std::sync::Arc;
use std::time::Instant;

use evdb_core::metrics::Registry;
use evdb_expr::{BatchScratch, CompiledExpr, Expr};
use evdb_rules::{IndexedMatcher, MatchScratch, Matcher, Rule, ScanMatcher};
use evdb_types::Record;

use super::{Scale, Table};
use crate::workloads::{
    distinct_lhs_rules, market_ticks, tick_rules, tick_rules_keyed, tick_schema,
};

/// Build both matchers over the same rule set.
fn matchers_over(rules: Vec<Expr>) -> (ScanMatcher, IndexedMatcher) {
    let schema = tick_schema();
    let mut scan = ScanMatcher::new(Arc::clone(&schema));
    let mut idx = IndexedMatcher::new(schema);
    for (i, r) in rules.into_iter().enumerate() {
        scan.add_rule(Rule::new(i as u64, "", r.clone())).unwrap();
        idx.add_rule(Rule::new(i as u64, "", r)).unwrap();
    }
    (scan, idx)
}

/// Build both matchers over the `band` arm's generated rule set.
pub fn build_matchers(nrules: usize, seed: u64) -> (ScanMatcher, IndexedMatcher) {
    matchers_over(tick_rules(nrules, 64, 0.05, seed))
}

fn us_per_event(m: &dyn Matcher, events: &[Record]) -> (f64, u64) {
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

/// Records per `match_batch` call in the batch timings.
const BATCH: usize = 64;

/// `match_batch` over `events` in [`BATCH`]-record batches.
fn batch_us_per_event(m: &dyn Matcher, events: &[Record]) -> (f64, u64) {
    let (mut scratch, mut out) = (MatchScratch::new(), Vec::new());
    let t0 = Instant::now();
    let mut matches = 0u64;
    for batch in events.chunks(BATCH) {
        let refs: Vec<&Record> = batch.iter().collect();
        scratch.clear_ids();
        m.match_batch(&refs, &mut scratch, &mut out);
        matches += out
            .iter()
            .map(|ids| ids.as_ref().unwrap().len() as u64)
            .sum::<u64>();
    }
    (
        t0.elapsed().as_secs_f64() * 1e6 / events.len() as f64,
        matches,
    )
}

/// The always-evaluate list over the same batches: every rule's full
/// predicate through the batch VM, one pass per rule — how
/// `match_batch` treats rules with no indexable constraint, and how it
/// treated every computed left side before expression keys.
fn always_evaluate_us_per_event(rules: &[Expr], events: &[Record]) -> (f64, u64) {
    let schema = tick_schema();
    let compiled: Vec<CompiledExpr> = rules
        .iter()
        .map(|r| CompiledExpr::compile(&r.bind_predicate(&schema).unwrap()))
        .collect();
    let (mut scratch, mut verdicts) = (BatchScratch::new(), Vec::new());
    let t0 = Instant::now();
    let mut matches = 0u64;
    for batch in events.chunks(BATCH) {
        let refs: Vec<&Record> = batch.iter().collect();
        for rule in &compiled {
            rule.matches_batch(&refs, |r| *r, &mut scratch, &mut verdicts);
            matches += scratch.selection().len() as u64;
        }
    }
    (
        t0.elapsed().as_secs_f64() * 1e6 / events.len() as f64,
        matches,
    )
}

/// Largest `distinct-lhs` rule count: cost is N evaluations per event
/// on both sides, so 10⁵ would only make the run long.
const DISTINCT_MAX: usize = 10_000;

/// Run E3.
pub fn run(scale: Scale) -> Table {
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![100, 1_000, 5_000],
        Scale::Full => vec![100, 1_000, 10_000, 100_000],
    };
    let nevents = scale.pick(200, 2_000);
    let events: Vec<Record> = market_ticks(nevents, 64, 1, 11)
        .iter()
        .map(|t| t.record())
        .collect();

    let mut table = Table::new(
        "E3: rule-set scalability — scan vs predicate-indexed matching",
        &[
            "arm",
            "rules",
            "scan_us/evt",
            "indexed_us/evt",
            "speedup",
            "cand/evt",
            "key_evals/evt",
            "batch_us/evt",
            "always_us/evt",
            "matches",
        ],
    );
    type RuleGen = fn(usize) -> Vec<Expr>;
    let arms: [(&str, RuleGen); 3] = [
        ("band", |n| tick_rules(n, 64, 0.05, 21)),
        ("keyed", |n| tick_rules_keyed(n, 64, 0.05, 21)),
        ("distinct-lhs", distinct_lhs_rules),
    ];
    for (arm, rules) in arms {
        for &n in &sizes {
            if arm == "distinct-lhs" && n > DISTINCT_MAX {
                continue;
            }
            let rules = rules(n);
            let (scan, mut idx) = matchers_over(rules.clone());
            let registry = Registry::new();
            idx.bind_obs(&registry);
            let (scan_us, m1) = us_per_event(&scan, &events);
            let (idx_us, m2) = us_per_event(&idx, &events);
            assert_eq!(m1, m2, "matchers must agree");
            let per_event = |name: &str| registry.counter(name).get() as f64 / nevents as f64;
            let candidates = per_event("evdb_rules_candidates_total");
            let key_evals = per_event("evdb_rules_key_evals_total");
            let (batch_us, m3) = batch_us_per_event(&idx, &events);
            assert_eq!(m1, m3, "batch and record paths must agree");
            let always = if arm == "distinct-lhs" {
                let (always_us, m4) = always_evaluate_us_per_event(&rules, &events);
                assert_eq!(m1, m4, "the always-evaluate list must agree");
                format!("{always_us:.1}")
            } else {
                "-".to_string()
            };
            table.row(vec![
                arm.to_string(),
                n.to_string(),
                format!("{scan_us:.1}"),
                format!("{idx_us:.1}"),
                format!("{:.1}x", scan_us / idx_us),
                format!("{candidates:.1}"),
                format!("{key_evals:.1}"),
                format!("{batch_us:.1}"),
                always,
                m1.to_string(),
            ]);
        }
    }
    table.note(format!(
        "{nevents} events, 64 symbols, 5% residual-only rules; keyed = 5% `sym LIKE 'S<d>%' AND qty % 97 = k`"
    ));
    table.note("scan grows ~linearly with rules; indexed with two-attribute candidates + the residual-only 5% (D1)");
    table.note("distinct-lhs: N rules, N left sides — one key evaluation and one hash probe per rule per event, the worst case (D1); always_us/evt = the always-evaluate list it replaces, to be read beside batch_us/evt");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexed_beats_scan_at_size() {
        let t = run(Scale::Quick);
        let cell = |arm: &str, col: usize| -> f64 {
            let row = t.rows.iter().rfind(|r| r[0] == arm).unwrap();
            row[col].trim_end_matches('x').parse().unwrap()
        };
        // At the largest size the speedup should exceed 2x, with or
        // without the keyed share.
        assert!(cell("band", 4) > 2.0, "band {}", cell("band", 4));
        assert!(cell("keyed", 4) > 2.0, "keyed {}", cell("keyed", 4));
        // One shared key: one evaluation per event, and the keyed share
        // adds candidates only where it can match.
        assert_eq!(cell("keyed", 6), 1.0);
        assert!(cell("keyed", 5) < cell("band", 5) + 4.0);
        // Nothing shared: one evaluation per rule.
        assert_eq!(cell("distinct-lhs", 6), cell("distinct-lhs", 1));
    }
}
