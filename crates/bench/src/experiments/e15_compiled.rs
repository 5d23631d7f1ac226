//! E15 — compiled predicate evaluation (DESIGN.md D11): the tutorial's
//! "the evaluation of internal data can significantly be optimized"
//! (§2.2.b.i.3), measured where evaluation actually dominates — the
//! candidate-verification step of E3's indexed-match workload.
//!
//! Two engines over the same bound predicates: the tree-walking
//! interpreter (the differential-testing oracle) and the bytecode VM
//! (`CompiledExpr`) with constant folding, conjunct reordering and
//! precompiled LIKE shapes. Three verification arms isolate the per-event
//! cost on the residual predicates candidates are checked against
//! (numeric comparisons; LIKE-heavy; mixed arithmetic+LIKE). The
//! matcher-level arm — the whole indexed matcher with its candidates
//! verified by the interpreter — went with the matcher's interpreter
//! mode (ISSUE 15: compiled won it 1.8×, nothing else ever selected the
//! interpreter); EXPERIMENTS.md keeps its last recorded row as history.
//!
//! Measurement follows E13: arms alternate order round to round and the
//! reported speedup is the median of per-round interpreted/compiled
//! ratios, so scheduler drift cancels instead of accumulating into one
//! arm. Expected shape: compiled verification ≥2× on the string/LIKE
//! and mixed arms (shape-specialized matching beats generic backtracking
//! on every event), with a smaller but real win on pure numerics.

use std::sync::Arc;
use std::time::Instant;

use evdb_expr::{compiler_stats, parse, CompiledExpr};
use evdb_rules::{IndexedMatcher, Matcher, Rule};
use evdb_types::{DataType, Record, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{Scale, Table};

/// Order events: `(sym STR, px FLOAT, qty INT, venue STR)`. The venue
/// string is long (~90 chars) and only sometimes contains the fragments
/// rules look for, so LIKE verification pays a real scan per event.
pub fn order_schema() -> Arc<Schema> {
    Schema::of(&[
        ("sym", DataType::Str),
        ("px", DataType::Float),
        ("qty", DataType::Int),
        ("venue", DataType::Str),
    ])
}

const FRAGS: &[&str] = &["limit", "dark", "sweep", "iceberg", "auction", "cross"];

/// Deterministic order-event payloads over the schema above (shared
/// with E19's dispatch duel).
pub fn order_events(n: usize, nsyms: usize, seed: u64) -> Vec<Record> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let mut venue = String::with_capacity(96);
            for k in 0..8 {
                if k > 0 {
                    venue.push('-');
                }
                // ~1 in 4 segments is a fragment rules search for; the
                // rest is routing noise the scan must walk past.
                if rng.gen::<f64>() < 0.25 {
                    venue.push_str(FRAGS[rng.gen_range(0..FRAGS.len())]);
                } else {
                    venue.push_str("route");
                    venue.push_str(&format!("{:04}", rng.gen_range(0..10_000)));
                }
            }
            Record::from_iter([
                Value::from(format!("S{}", i % nsyms).as_str()),
                Value::Float((rng.gen_range(10.0f64..500.0) * 100.0).round() / 100.0),
                Value::Int(rng.gen_range(1..1_000)),
                Value::from(venue.as_str()),
            ])
        })
        .collect()
}

/// Rules for the end-to-end arm: every rule is indexed under a symbol
/// equality; the thirds differ in what candidate verification costs.
/// (Shared with E19's dispatch duel.)
pub fn order_rules(n: usize, nsyms: usize, seed: u64) -> Vec<evdb_expr::Expr> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let k = rng.gen_range(0..nsyms);
            let lo = rng.gen_range(10.0..400.0);
            let hi = lo + rng.gen_range(5.0..80.0);
            let f1 = FRAGS[rng.gen_range(0..FRAGS.len())];
            let f2 = FRAGS[rng.gen_range(0..FRAGS.len())];
            let text = match i % 3 {
                0 => format!("sym = 'S{k}' AND px BETWEEN {lo:.2} AND {hi:.2}"),
                1 => format!(
                    "sym = 'S{k}' AND (venue LIKE '%{f1}%' OR venue LIKE '%{f2}%')"
                ),
                _ => format!(
                    "sym = 'S{k}' AND qty > {} AND venue LIKE '%{f1}%'",
                    rng.gen_range(0..900)
                ),
            };
            parse(&text).expect("valid rule")
        })
        .collect()
}

/// Time `matches` over every event; returns (ns/event, match count).
fn verify_ns(run: &mut dyn FnMut(&Record) -> bool, events: &[Record]) -> (f64, u64) {
    let t0 = Instant::now();
    let mut matches = 0u64;
    for e in events {
        matches += run(e) as u64;
    }
    (
        t0.elapsed().as_secs_f64() * 1e9 / events.len() as f64,
        matches,
    )
}

/// Alternating-order rounds of interpreted vs compiled evaluation of one
/// predicate; returns (best interp ns, best compiled ns, median speedup).
fn duel(predicate: &str, events: &[Record], rounds: usize) -> (f64, f64, f64) {
    let schema = order_schema();
    let bound = parse(predicate).unwrap().bind_predicate(&schema).unwrap();
    let compiled = CompiledExpr::compile(&bound);
    let mut interp = |r: &Record| bound.matches(r).unwrap();
    let mut vm = |r: &Record| compiled.matches(r).unwrap();
    // Warm-up + agreement check.
    let (_, m1) = verify_ns(&mut interp, events);
    let (_, m2) = verify_ns(&mut vm, events);
    assert_eq!(m1, m2, "engines disagree on `{predicate}`");

    let (mut best_i, mut best_c) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let (ti, tc) = if r % 2 == 0 {
            let a = verify_ns(&mut interp, events).0;
            let b = verify_ns(&mut vm, events).0;
            (a, b)
        } else {
            let b = verify_ns(&mut vm, events).0;
            let a = verify_ns(&mut interp, events).0;
            (a, b)
        };
        best_i = best_i.min(ti);
        best_c = best_c.min(tc);
        ratios.push(ti / tc);
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    (best_i, best_c, ratios[ratios.len() / 2])
}

/// The three candidate-verification arms (the residuals an indexed
/// matcher actually re-checks once the symbol probe has selected
/// candidates — no leading equality to short-circuit on).
const ARMS: &[(&str, &str)] = &[
    (
        "verify_numeric",
        "px BETWEEN 80 AND 220 AND qty > 150 AND qty <= 900",
    ),
    (
        "verify_like",
        "venue LIKE '%limit%' OR venue LIKE '%iceberg%'",
    ),
    (
        "verify_mixed",
        "qty BETWEEN 100 AND 900 AND px * 1.5 + 10 > 60 AND venue LIKE '%sweep%'",
    ),
];

/// Run E15.
pub fn run(scale: Scale) -> Table {
    let nsyms = 8;
    let nevents = scale.pick(2_000, 20_000);
    let nrules = scale.pick(1_000, 10_000);
    let rounds = scale.pick(5, 7);
    let events = order_events(nevents, nsyms, 47);

    let mut table = Table::new(
        "E15: compiled predicate evaluation — interpreter vs bytecode (D11)",
        &["arm", "interpreted", "compiled", "speedup", "unit"],
    );

    for (name, predicate) in ARMS {
        let (ni, nc, speedup) = duel(predicate, &events, rounds);
        table.row(vec![
            name.to_string(),
            format!("{ni:.0}"),
            format!("{nc:.0}"),
            format!("{speedup:.1}x"),
            "ns/event".into(),
        ]);
    }

    // Registering E3's rule set compiles every predicate; the stats
    // delta makes the optimizer's work visible (D9).
    let before = compiler_stats();
    let mut matcher = IndexedMatcher::new(order_schema());
    for (i, r) in order_rules(nrules, nsyms, 23).into_iter().enumerate() {
        matcher.add_rule(Rule::new(i as u64, "", r)).unwrap();
    }
    let after = compiler_stats();
    let stats = (
        after.compiled_total - before.compiled_total,
        after.folded_subtrees - before.folded_subtrees,
        after.like_precompiled - before.like_precompiled,
    );

    table.note(format!(
        "{nevents} events over {nsyms} symbols, {rounds} alternating-order \
         rounds; speedup is the median of per-round ratios (E13 method), ns/event the per-arm best"
    ));
    table.note(format!(
        "registering {nrules} rules compiled {} predicates, folded {} constant subtrees, precompiled {} \
         LIKE patterns (D9: optimizer work is counted, not silent)",
        stats.0, stats.1, stats.2
    ));
    table.note("verify arms are the residuals candidates are checked against");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_verification_is_faster() {
        // The LIKE-heavy and mixed arms carry the ≥2× claim, which is
        // about optimized builds (EXPERIMENTS.md numbers); unoptimized
        // test builds inflate the VM's inlinable helpers, so they assert
        // a conservative floor instead. Each attempt is already a median
        // over alternating rounds; the best of up to three attempts
        // screens out CI neighbors.
        let (like_floor, mixed_floor) = if cfg!(debug_assertions) {
            (1.5, 1.2)
        } else {
            (2.0, 2.0)
        };
        let (mut best_like, mut best_mixed) = (0f64, 0f64);
        for _ in 0..3 {
            let t = run(Scale::Quick);
            let speed = |row: usize| -> f64 {
                t.rows[row][3].trim_end_matches('x').parse().unwrap()
            };
            best_like = best_like.max(speed(1));
            best_mixed = best_mixed.max(speed(2));
            if best_like >= like_floor && best_mixed >= mixed_floor {
                break;
            }
        }
        assert!(
            best_like >= like_floor,
            "LIKE-arm speedup {best_like:.2}x < {like_floor}x"
        );
        assert!(
            best_mixed >= mixed_floor,
            "mixed-arm speedup {best_mixed:.2}x < {mixed_floor}x"
        );
    }

    #[test]
    fn engines_agree_and_stats_are_counted() {
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 3);
        // The D9 note proves the compile/fold counters moved. They are
        // process-wide, so a sibling test compiling at the same time can
        // only add to the count.
        let compiled: u64 = t
            .notes
            .iter()
            .find_map(|n| n.split(" compiled ").nth(1)?.split(' ').next()?.parse().ok())
            .expect("a note reports the compiled predicates");
        assert!(compiled >= 1000, "compiled {compiled} predicates for 1000 rules");
    }
}
