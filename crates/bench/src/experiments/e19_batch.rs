//! E19 — the batched hot path (DESIGN.md D15): does vectorized
//! dispatch actually buy throughput where evaluation dominates?
//!
//! E15's candidate-verification workload, timed per-event
//! (`matches`/`match_record`, the single-record evaluators) vs batched
//! (`matches_batch`/`match_batch` over [`BATCH`]-row chunks with reused
//! scratch). Four bare-VM arms isolate single-predicate dispatch
//! (`eval_wide` stresses the fused field-vs-constant fast paths). Same
//! alternating-order/median method as E13/E15. In optimized builds the
//! best bare-VM arm must clear **≥1.5×** — that floor is asserted in-run,
//! not just eyeballed, because it is the premise the batched pipeline
//! rests on. The `rules_verify` arm runs the full indexed matcher
//! through both entry points and is reported, not floored: since D1's
//! conjunction-aware index, `match_batch` is `match_record` per record
//! (one probe routine) and only rules *no* index narrows go through the
//! batch VM, so on this all-indexed rule set the two columns are the
//! same code and the ratio is ~1.0×.
//!
//! Scalar/batch equivalence is not this experiment's job: it is
//! enforced differentially by `tests/prop_batch_eval.rs` (expressions),
//! and for the pipeline — which has a single, batched evaluation path
//! (D15) — by `tests/prop_chunking.rs` (any cut of the input answers
//! like the singletons cut). E19 only measures — but it
//! measures with the agreement checks left on.

use std::sync::Arc;
use std::time::Instant;

use evdb_expr::{parse, BatchScratch, CompiledExpr};
use evdb_rules::{IndexedMatcher, MatchScratch, Matcher, Rule};
use evdb_types::{Record, Result};

use super::e15_compiled::{order_events, order_rules, order_schema};
use super::{Scale, Table};

/// Rows per `matches_batch` call — the pipeline's working unit.
const BATCH: usize = 256;

/// The eval-bound arms: E15's verification residuals (no leading
/// equality to short-circuit on), which is where dispatch cost shows.
const ARMS: &[(&str, &str)] = &[
    (
        "eval_numeric",
        "px BETWEEN 80 AND 220 AND qty > 150 AND qty <= 900",
    ),
    (
        "eval_like",
        "venue LIKE '%limit%' OR venue LIKE '%iceberg%'",
    ),
    (
        "eval_mixed",
        "qty BETWEEN 100 AND 900 AND px * 1.5 + 10 > 60 AND venue LIKE '%sweep%'",
    ),
    (
        "eval_wide",
        "px > 10 AND px < 490 AND qty > 5 AND qty < 995 AND px BETWEEN 20 AND 480 AND qty BETWEEN 10 AND 990 AND px + qty > 30 AND px * 2.0 < 1000",
    ),
];

/// ns/event and match count for the per-event dispatch loop.
fn per_event_ns(compiled: &CompiledExpr, events: &[Record]) -> (f64, u64) {
    let t0 = Instant::now();
    let mut matches = 0u64;
    for e in events {
        matches += compiled.matches(e).unwrap() as u64;
    }
    (
        t0.elapsed().as_secs_f64() * 1e9 / events.len() as f64,
        matches,
    )
}

/// ns/event and match count for the batched dispatch loop.
fn batched_ns(
    compiled: &CompiledExpr,
    events: &[Record],
    scratch: &mut BatchScratch,
    out: &mut Vec<Result<bool>>,
) -> (f64, u64) {
    let t0 = Instant::now();
    let mut matches = 0u64;
    for chunk in events.chunks(BATCH) {
        compiled.matches_batch(chunk, |r| r, scratch, out);
        matches += out.iter().filter(|r| matches!(r, Ok(true))).count() as u64;
    }
    (
        t0.elapsed().as_secs_f64() * 1e9 / events.len() as f64,
        matches,
    )
}

/// Alternating-order rounds of per-event vs batched dispatch of one
/// predicate; returns (best per-event ns, best batched ns, median ratio).
fn duel(predicate: &str, events: &[Record], rounds: usize) -> (f64, f64, f64) {
    let schema = order_schema();
    let bound = parse(predicate).unwrap().bind_predicate(&schema).unwrap();
    let compiled = CompiledExpr::compile(&bound);
    let mut scratch = BatchScratch::default();
    let mut out = Vec::new();
    // Warm-up + agreement check (the equivalence tests own the full
    // contract; this guards the measurement itself).
    let (_, m1) = per_event_ns(&compiled, events);
    let (_, m2) = batched_ns(&compiled, events, &mut scratch, &mut out);
    assert_eq!(m1, m2, "dispatch paths disagree on `{predicate}`");

    let (mut best_p, mut best_b) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let (tp, tb) = if r % 2 == 0 {
            let a = per_event_ns(&compiled, events).0;
            let b = batched_ns(&compiled, events, &mut scratch, &mut out).0;
            (a, b)
        } else {
            let b = batched_ns(&compiled, events, &mut scratch, &mut out).0;
            let a = per_event_ns(&compiled, events).0;
            (a, b)
        };
        best_p = best_p.min(tp);
        best_b = best_b.min(tb);
        ratios.push(tp / tb);
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    (best_p, best_b, ratios[ratios.len() / 2])
}

/// Alternating-order rounds of `match_record` vs `match_batch` over
/// E15's indexed workload. Both verify index candidates one record at a
/// time (D1); the arm shows what the matcher costs end to end and that
/// its two entry points agree. Returns (best per-record ns, best batched
/// ns, median ratio).
fn rules_duel(events: &[Record], nrules: usize, rounds: usize) -> (f64, f64, f64) {
    let schema = order_schema();
    let mut matcher = IndexedMatcher::new(Arc::clone(&schema));
    for (i, r) in order_rules(nrules, 8, 29).into_iter().enumerate() {
        matcher.add_rule(Rule::new(i as u64, "", r)).unwrap();
    }
    let refs: Vec<&Record> = events.iter().collect();
    let mut scratch = MatchScratch::new();
    let mut out = Vec::new();

    let per_record = |m: &IndexedMatcher| -> (f64, u64) {
        let t0 = Instant::now();
        let mut hits = 0u64;
        for e in events {
            hits += m.match_record(e).unwrap().len() as u64;
        }
        (
            t0.elapsed().as_secs_f64() * 1e9 / events.len() as f64,
            hits,
        )
    };
    let mut batched = |m: &IndexedMatcher| -> (f64, u64) {
        let t0 = Instant::now();
        let mut hits = 0u64;
        for chunk in refs.chunks(BATCH) {
            scratch.clear_ids();
            m.match_batch(chunk, &mut scratch, &mut out);
            hits += out
                .iter()
                .map(|r| r.as_ref().unwrap().len() as u64)
                .sum::<u64>();
        }
        (
            t0.elapsed().as_secs_f64() * 1e9 / events.len() as f64,
            hits,
        )
    };
    // Warm-up + agreement check.
    let (_, h1) = per_record(&matcher);
    let (_, h2) = batched(&matcher);
    assert_eq!(h1, h2, "dispatch paths disagree on rule matches");

    let (mut best_p, mut best_b) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let (tp, tb) = if r % 2 == 0 {
            let a = per_record(&matcher).0;
            let b = batched(&matcher).0;
            (a, b)
        } else {
            let b = batched(&matcher).0;
            let a = per_record(&matcher).0;
            (a, b)
        };
        best_p = best_p.min(tp);
        best_b = best_b.min(tb);
        ratios.push(tp / tb);
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    (best_p, best_b, ratios[ratios.len() / 2])
}

/// Run E19.
pub fn run(scale: Scale) -> Table {
    let nevents = scale.pick(4_000, 40_000);
    let rounds = scale.pick(5, 7);
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let events = order_events(nevents, 8, 83);

    let mut table = Table::new(
        "E19: batched hot path — vectorized dispatch (D15)",
        &["arm", "per_event", "batched", "speedup", "unit", "cores"],
    );

    let mut best_eval = 0f64;
    for (name, predicate) in ARMS {
        let (np, nb, speedup) = duel(predicate, &events, rounds);
        best_eval = best_eval.max(speedup);
        table.row(vec![
            name.to_string(),
            format!("{np:.0}"),
            format!("{nb:.0}"),
            format!("{speedup:.1}x"),
            "ns/event".into(),
            cores.to_string(),
        ]);
    }
    // Rule matching, the pipeline's dominant eval stage — reported, not
    // part of the floor (both entry points verify candidates per record).
    let nrules = scale.pick(1_000, 10_000);
    let (np, nb, rules_speedup) = rules_duel(&events, nrules, rounds);
    table.row(vec![
        "rules_verify".into(),
        format!("{np:.0}"),
        format!("{nb:.0}"),
        format!("{rules_speedup:.1}x"),
        "ns/event".into(),
        cores.to_string(),
    ]);
    // The floor the batched pipeline is premised on. Unoptimized builds
    // lose the tight-loop advantage to un-inlined helpers, so the hard
    // assert is release-only (the harness and CI smoke run --release).
    if !cfg!(debug_assertions) {
        assert!(
            best_eval >= 1.5,
            "batched dispatch only {best_eval:.2}x over per-event on the best eval-bound arm \
             (floor 1.5x)"
        );
    }

    table.note(format!(
        "{nevents} events/arm, batch size {BATCH}, {rounds} alternating-order rounds; \
         eval speedup is the median per-round ratio (E13 method), ns/event the per-arm best"
    ));
    table.note(
        "scalar/batched equivalence is enforced by tests/prop_batch_eval.rs, chunking \
         invariance by tests/prop_chunking.rs",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e19_reports_all_arms_and_agrees() {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let t = run(Scale::Quick);
        // 5 eval arms: 4 bare VM + rules_verify.
        assert_eq!(t.rows.len(), 5);
        for row in &t.rows {
            assert_eq!(row[5].parse::<usize>().unwrap(), cores);
        }
        for row in &t.rows {
            assert!(row[3].ends_with('x'), "{row:?}");
        }
    }

    #[test]
    fn batched_dispatch_beats_per_event_in_release() {
        // The in-run 1.5x floor only arms in optimized builds; in debug
        // builds still require the batch path to not be pathologically
        // slower (agreement is checked inside `duel` either way).
        let t = run(Scale::Quick);
        let best = t
            .rows
            .iter()
            .take(5)
            .map(|r| r[3].trim_end_matches('x').parse::<f64>().unwrap())
            .fold(0f64, f64::max);
        let floor = if cfg!(debug_assertions) { 0.5 } else { 1.5 };
        assert!(best >= floor, "best eval speedup {best:.2}x < {floor}x");
    }
}
