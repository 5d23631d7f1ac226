//! Criterion microbench for E19/D15: batched vs per-event dispatch on
//! the hot path — the bare batch VM (`matches_batch`) over the E15
//! predicate families, and the indexed matcher's rule-major
//! `match_batch` over its candidate-verification workload.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use evdb_bench::experiments::e15_compiled::{order_events, order_rules, order_schema};
use evdb_expr::{parse, BatchScratch, CompiledExpr};
use evdb_rules::{IndexedMatcher, MatchScratch, Matcher, Rule};
use evdb_types::Record;

/// Rows per batch call — the pipeline's working unit (as in E19).
const BATCH: usize = 256;

const FAMILIES: &[(&str, &str)] = &[
    (
        "numeric",
        "px BETWEEN 80 AND 220 AND qty > 150 AND qty <= 900",
    ),
    (
        "string_like",
        "venue LIKE '%limit%' OR venue LIKE '%iceberg%'",
    ),
    (
        "mixed",
        "qty BETWEEN 100 AND 900 AND px * 1.5 + 10 > 60 AND venue LIKE '%sweep%'",
    ),
];

fn bench_eval_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("e19_eval_batch");
    let s = order_schema();
    let evs = order_events(4_096, 8, 83);
    for (family, predicate) in FAMILIES {
        let compiled = CompiledExpr::compile(&parse(predicate).unwrap().bind_predicate(&s).unwrap());
        g.bench_with_input(
            BenchmarkId::new("per_event", family),
            &compiled,
            |b, compiled| {
                let mut i = 0usize;
                b.iter(|| {
                    i = (i + 1) % evs.len();
                    compiled.matches(&evs[i]).unwrap()
                });
            },
        );
        g.bench_with_input(
            BenchmarkId::new("batched", family),
            &compiled,
            |b, compiled| {
                let mut scratch = BatchScratch::default();
                let mut out = Vec::new();
                let mut i = 0usize;
                // One BATCH-row chunk per iteration; per-event cost is
                // the reported time divided by BATCH.
                b.iter(|| {
                    let chunk = &evs[(i * BATCH) % (evs.len() - BATCH)..][..BATCH];
                    i += 1;
                    compiled.matches_batch(chunk, |r| r, &mut scratch, &mut out);
                    out.iter().filter(|r| matches!(r, Ok(true))).count()
                });
            },
        );
    }
    g.finish();
}

fn bench_match_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("e19_match_batch");
    let s = order_schema();
    let evs = order_events(4_096, 8, 83);
    let refs: Vec<&Record> = evs.iter().collect();
    let mut matcher = IndexedMatcher::new(Arc::clone(&s));
    for (i, r) in order_rules(1_000, 8, 29).into_iter().enumerate() {
        matcher.add_rule(Rule::new(i as u64, "", r)).unwrap();
    }
    g.bench_function("per_record", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % evs.len();
            matcher.match_record(&evs[i]).unwrap().len()
        });
    });
    g.bench_function("batched", |b| {
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        let mut i = 0usize;
        b.iter(|| {
            let chunk = &refs[(i * BATCH) % (refs.len() - BATCH)..][..BATCH];
            i += 1;
            matcher.match_batch(chunk, &mut scratch, &mut out);
            out.iter().map(|r| r.as_ref().unwrap().len()).sum::<usize>()
        });
    });
    g.finish();
}

criterion_group!(benches, bench_eval_batch, bench_match_batch);
criterion_main!(benches);
