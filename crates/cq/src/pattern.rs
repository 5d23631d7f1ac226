//! CEP pattern matching: SEQ patterns compiled to an NFA.
//!
//! A [`Pattern`] is an ordered list of [`Step`]s over one event schema,
//! with a `WITHIN` time bound. Steps may be:
//!
//! * plain — match exactly one event satisfying the predicate,
//! * `optional` — may be skipped,
//! * `kleene` — match one or more events (greedy),
//! * `negated` — a guard: no event satisfying the predicate may occur
//!   between the neighbouring matched steps; a guard hit kills the
//!   partial match.
//!
//! Three **skip strategies** control what happens to a partial match when
//! an event fails to advance it ([`SkipStrategy`]):
//! `StrictContiguity` kills it, `SkipTillNext` ignores the event,
//! `SkipTillAny` additionally *branches* when an event could either be
//! consumed or skipped — enumerating every matching subsequence (bounded
//! by `max_runs`).
//!
//! [`NaiveMatcher`] is the E6 baseline: it buffers the window and
//! enumerates subsequences by nested scanning — semantically equal to
//! `SkipTillAny` for plain SEQ patterns (property-tested), and
//! super-linearly slower.
//!
//! [`RevisablePatternMatcher`] wraps the NFA for out-of-order streams
//! (DESIGN.md D12): at the Watermark level it sorts events up to the
//! watermark before feeding the NFA (final, retraction-free output); at
//! the Speculative level it matches eagerly and, when a late event or a
//! retraction revises the input, replays its bounded history to emit
//! retractions for invalidated matches and inserts for new ones.

use std::collections::HashMap;
use std::sync::Arc;

use evdb_expr::{CompiledExpr, Expr};
use evdb_types::{
    DataType, Error, Event, EventId, FieldDef, Record, Result, Schema, TimestampMs, Value,
};

use crate::delta::ConsistencyLevel;
use crate::op::{OpStats, Operator};

/// One step of a pattern.
#[derive(Debug, Clone)]
pub struct Step {
    /// Step name; prefixes the step's columns in match output.
    pub name: String,
    /// Predicate over the input schema.
    pub predicate: Expr,
    /// May be skipped entirely.
    pub optional: bool,
    /// Matches one or more events (greedy).
    pub kleene: bool,
    /// Guard: events matching this predicate kill partial matches
    /// currently between the neighbouring steps.
    pub negated: bool,
}

impl Step {
    /// A plain step.
    pub fn new(name: impl Into<String>, predicate: Expr) -> Step {
        Step {
            name: name.into(),
            predicate,
            optional: false,
            kleene: false,
            negated: false,
        }
    }

    /// Make the step optional.
    pub fn optional(mut self) -> Step {
        self.optional = true;
        self
    }

    /// Make the step Kleene-plus.
    pub fn one_or_more(mut self) -> Step {
        self.kleene = true;
        self
    }

    /// Make the step a negation guard.
    pub fn negation(mut self) -> Step {
        self.negated = true;
        self
    }
}

/// A SEQ pattern with a WITHIN bound.
#[derive(Debug, Clone)]
pub struct Pattern {
    /// The ordered steps.
    pub steps: Vec<Step>,
    /// Max distance (ms, event time) between the first and last matched
    /// event.
    pub within_ms: i64,
}

impl Pattern {
    /// Build a pattern; validates step structure.
    pub fn new(steps: Vec<Step>, within_ms: i64) -> Result<Pattern> {
        if steps.is_empty() {
            return Err(Error::Invalid("pattern needs at least one step".into()));
        }
        if within_ms <= 0 {
            return Err(Error::Invalid("WITHIN must be positive".into()));
        }
        if steps.iter().all(|s| s.negated || s.optional) {
            return Err(Error::Invalid(
                "pattern needs at least one mandatory positive step".into(),
            ));
        }
        for s in &steps {
            if s.negated && (s.optional || s.kleene) {
                return Err(Error::Invalid(format!(
                    "step '{}': negation cannot combine with optional/kleene",
                    s.name
                )));
            }
        }
        if steps.first().map(|s| s.negated).unwrap_or(false) {
            return Err(Error::Invalid(
                "pattern cannot start with a negation".into(),
            ));
        }
        Ok(Pattern { steps, within_ms })
    }
}

/// Skip strategy (match selection policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipStrategy {
    /// Every event must advance a partial match or it dies.
    StrictContiguity,
    /// Irrelevant events are ignored; each step consumes the first event
    /// that matches it.
    SkipTillNext,
    /// Like SkipTillNext, but also branch on every consumable event —
    /// enumerates all matching subsequences.
    SkipTillAny,
}

#[derive(Debug, Clone)]
struct Binding {
    step: usize,
    last: Record,
    count: u32,
    last_ts: TimestampMs,
}

#[derive(Debug, Clone)]
struct Run {
    /// Index of the next unmatched (non-guard) step to try.
    pos: usize,
    /// True when the previously matched step was kleene and may absorb
    /// more events.
    kleene_open: bool,
    started_at: TimestampMs,
    bindings: Vec<Binding>,
}

/// The NFA pattern matcher. Also usable as a pipeline [`Operator`].
pub struct PatternMatcher {
    steps: Vec<CompiledStep>,
    within_ms: i64,
    strategy: SkipStrategy,
    runs: Vec<Run>,
    input_width: usize,
    out_schema: Arc<Schema>,
    emit_seq: u64,
    /// Runs dropped because `max_runs` was hit (observability).
    pub overflow_drops: u64,
    /// Cap on simultaneous partial matches.
    pub max_runs: usize,
    label: String,
}

struct CompiledStep {
    meta: Step,
    /// Step guard, compiled to bytecode at pattern-compile time.
    pred: CompiledExpr,
}

impl PatternMatcher {
    /// Compile a pattern against the input schema.
    pub fn new(
        pattern: Pattern,
        input: &Arc<Schema>,
        strategy: SkipStrategy,
    ) -> Result<PatternMatcher> {
        let mut steps = Vec::with_capacity(pattern.steps.len());
        for s in &pattern.steps {
            steps.push(CompiledStep {
                pred: CompiledExpr::compile(&s.predicate.bind_predicate(input)?),
                meta: s.clone(),
            });
        }
        // Output schema: start/end timestamps, then per positive step the
        // input fields prefixed with the step name (last matched event),
        // plus a count column for kleene steps.
        let mut fields = vec![
            FieldDef::required("start_ts", DataType::Timestamp),
            FieldDef::required("end_ts", DataType::Timestamp),
        ];
        for s in &pattern.steps {
            if s.negated {
                continue;
            }
            for f in input.fields() {
                fields.push(FieldDef::nullable(
                    format!("{}_{}", s.name, f.name),
                    f.dtype,
                ));
            }
            if s.kleene {
                fields.push(FieldDef::required(
                    format!("{}_count", s.name),
                    DataType::Int,
                ));
            }
        }
        Ok(PatternMatcher {
            steps,
            within_ms: pattern.within_ms,
            strategy,
            runs: Vec::new(),
            input_width: input.len(),
            out_schema: Schema::new(fields)?,
            emit_seq: 0,
            overflow_drops: 0,
            max_runs: 10_000,
            label: "pattern".to_string(),
        })
    }

    /// Live partial matches (observability / leak tests).
    pub fn active_runs(&self) -> usize {
        self.runs.len()
    }

    /// Feed one event; returns completed matches.
    pub fn push(&mut self, event: &Event) -> Result<Vec<Event>> {
        let mut out = Vec::new();
        self.on_event(event, &mut out)?;
        Ok(out)
    }

    /// Steps reachable from `pos` (skipping optionals), with the guard
    /// steps crossed to reach each.
    fn reachable(&self, pos: usize) -> Vec<(usize, Vec<usize>)> {
        let mut out = Vec::new();
        let mut guards = Vec::new();
        let mut j = pos;
        while j < self.steps.len() {
            let s = &self.steps[j].meta;
            if s.negated {
                guards.push(j);
                j += 1;
                continue;
            }
            out.push((j, guards.clone()));
            if s.optional {
                j += 1;
            } else {
                break;
            }
        }
        out
    }

    /// Active guards for a waiting run: negation steps crossed before any
    /// reachable positive step.
    fn active_guards(&self, pos: usize) -> Vec<usize> {
        let mut guards = Vec::new();
        let mut j = pos;
        while j < self.steps.len() {
            let s = &self.steps[j].meta;
            if s.negated {
                guards.push(j);
                j += 1;
            } else if s.optional {
                j += 1;
            } else {
                break;
            }
        }
        guards
    }

    fn emit_match(&mut self, run: &Run, end_ts: TimestampMs, out: &mut Vec<Event>) {
        let mut values = vec![
            Value::Timestamp(run.started_at),
            Value::Timestamp(end_ts),
        ];
        for (i, cs) in self.steps.iter().enumerate() {
            if cs.meta.negated {
                continue;
            }
            match run.bindings.iter().find(|b| b.step == i) {
                Some(b) => {
                    for v in b.last.values() {
                        values.push(v.clone());
                    }
                    if cs.meta.kleene {
                        values.push(Value::Int(b.count as i64));
                    }
                }
                None => {
                    // Skipped optional step → NULL columns.
                    for _ in 0..self.input_width {
                        values.push(Value::Null);
                    }
                    if cs.meta.kleene {
                        values.push(Value::Int(0));
                    }
                }
            }
        }
        self.emit_seq += 1;
        out.push(Event::new(
            EventId(self.emit_seq),
            "pattern",
            end_ts,
            Record::new(values),
            Arc::clone(&self.out_schema),
        ));
    }
}

impl Operator for PatternMatcher {
    fn on_event(&mut self, event: &Event, out: &mut Vec<Event>) -> Result<()> {
        let ts = event.timestamp;
        // Expire runs beyond the WITHIN horizon.
        let within = self.within_ms;
        self.runs.retain(|r| ts.since(r.started_at) <= within);

        // Seed a fresh run so the event can start a new match.
        let mut next_runs: Vec<Run> = Vec::with_capacity(self.runs.len() + 1);
        let mut candidates: Vec<Run> = std::mem::take(&mut self.runs);
        candidates.push(Run {
            pos: 0,
            kleene_open: false,
            started_at: ts,
            bindings: Vec::new(),
        });

        let mut completed: Vec<Run> = Vec::new();
        for run in candidates {
            let is_seed = run.bindings.is_empty();
            // 1. Guard check (only meaningful for in-flight runs).
            if !is_seed {
                let guards = self.active_guards(run.pos);
                let mut killed = false;
                for g in guards {
                    if self.steps[g].pred.matches(&event.payload)? {
                        killed = true;
                        break;
                    }
                }
                if killed {
                    continue; // run dies
                }
            }

            // 2. Kleene continuation: previous step may absorb the event.
            let mut consumed_by_kleene = false;
            if run.kleene_open {
                let prev = run.pos - 1;
                if self.steps[prev].pred.matches(&event.payload)? {
                    consumed_by_kleene = true;
                    let mut extended = run.clone();
                    let b = extended
                        .bindings
                        .iter_mut()
                        .rev()
                        .find(|b| b.step == prev)
                        .expect("kleene binding exists");
                    b.last = event.payload.clone();
                    b.last_ts = ts;
                    b.count += 1;
                    next_runs.push(extended);
                    // With SkipTillAny, also branch: a run that does NOT
                    // absorb this event survives below.
                }
            }

            // 3. Try to advance to a reachable step.
            let mut advanced = false;
            for (idx, _) in self.reachable(run.pos) {
                if self.steps[idx].pred.matches(&event.payload)? {
                    advanced = true;
                    let mut adv = run.clone();
                    adv.bindings.push(Binding {
                        step: idx,
                        last: event.payload.clone(),
                        count: 1,
                        last_ts: ts,
                    });
                    adv.pos = idx + 1;
                    adv.kleene_open = self.steps[idx].meta.kleene;
                    if is_seed {
                        adv.started_at = ts;
                    }
                    // Completed? (No mandatory positive steps remain.)
                    let rest_all_skippable = (adv.pos..self.steps.len()).all(|j| {
                        self.steps[j].meta.negated || self.steps[j].meta.optional
                    }) && !adv.kleene_open;
                    let could_complete = (adv.pos..self.steps.len())
                        .all(|j| self.steps[j].meta.negated || self.steps[j].meta.optional);
                    if rest_all_skippable {
                        completed.push(adv);
                    } else if could_complete && adv.kleene_open {
                        // A kleene step at the end: the run is complete
                        // but may also keep absorbing. Emit now AND keep
                        // the run only under SkipTillAny (all matches);
                        // under SkipTillNext keep absorbing greedily and
                        // emit only when the run dies? Simplest sound
                        // choice: emit the minimal match, and keep the
                        // run open for extension under SkipTillAny.
                        completed.push(adv.clone());
                        if self.strategy == SkipStrategy::SkipTillAny {
                            next_runs.push(adv);
                        }
                    } else {
                        next_runs.push(adv);
                    }
                    break; // advance to the first matching reachable step
                }
            }

            // 4. Decide whether the un-advanced original survives.
            let survives = if is_seed {
                false // seeds only live if they matched
            } else {
                match self.strategy {
                    // Strict: the event either extended/advanced this run
                    // (the successor was pushed) or the run dies.
                    SkipStrategy::StrictContiguity => false,
                    SkipStrategy::SkipTillNext => !advanced && !consumed_by_kleene,
                    SkipStrategy::SkipTillAny => true,
                }
            };
            if survives {
                next_runs.push(run);
            }
        }

        // Emit matches in a deterministic order (by start then bindings).
        for run in &completed {
            let end_ts = run
                .bindings
                .iter()
                .map(|b| b.last_ts)
                .max()
                .unwrap_or(ts);
            self.emit_match(run, end_ts, out);
        }

        if next_runs.len() > self.max_runs {
            self.overflow_drops += (next_runs.len() - self.max_runs) as u64;
            next_runs.truncate(self.max_runs);
        }
        self.runs = next_runs;
        Ok(())
    }

    fn on_watermark(&mut self, wm: TimestampMs, _out: &mut Vec<Event>) -> Result<()> {
        let within = self.within_ms;
        self.runs.retain(|r| wm.since(r.started_at) <= within);
        Ok(())
    }

    fn output_schema(&self) -> Arc<Schema> {
        Arc::clone(&self.out_schema)
    }

    fn name(&self) -> &str {
        &self.label
    }

    fn state_size(&self) -> usize {
        self.runs.len()
    }

    fn op_stats(&self) -> OpStats {
        OpStats {
            overflow_drops: self.overflow_drops,
            ..OpStats::default()
        }
    }
}

/// Out-of-order-safe pattern matching with per-query consistency
/// (DESIGN.md D12).
///
/// The core [`PatternMatcher`] is strictly arrival-ordered: feeding it a
/// shuffled stream produces different matches. This wrapper restores
/// event-time semantics:
///
/// * [`ConsistencyLevel::Watermark`] — events are buffered and released
///   to the NFA in `(timestamp, id)` order once the watermark passes
///   them. Output is final; no retractions.
/// * [`ConsistencyLevel::Speculative`] — events are matched eagerly. A
///   late (out-of-order) event or a retraction of a constituent event
///   triggers a replay of the bounded history (events newer than
///   `watermark − within`): matches that vanish are retracted, matches
///   that appear are inserted. Matches ending at or before the watermark
///   are final and never revised.
pub struct RevisablePatternMatcher {
    pattern: Pattern,
    input: Arc<Schema>,
    strategy: SkipStrategy,
    consistency: ConsistencyLevel,
    /// The live NFA; invariant: its state equals a fresh NFA fed
    /// `history` in `(timestamp, id)` order.
    inner: PatternMatcher,
    /// Speculative: net insert history within the revision horizon.
    /// Watermark: events buffered until the watermark releases them.
    history: Vec<Event>,
    /// Speculative: emitted matches not yet final (subject to retraction).
    live: Vec<Event>,
    /// Finality horizon (highest watermark seen).
    final_wm: i64,
    emit_seq: u64,
    /// Events beyond the finality horizon, dropped (D9).
    pub late_events: u64,
    /// Out-of-order events / retractions admitted as revisions.
    pub late_admitted: u64,
    /// Runs the matchers a rebuild replaced dropped at their `max_runs`
    /// cap (the live matcher counts its own).
    overflow_drops: u64,
    /// Retraction matches emitted.
    pub retractions: u64,
    label: String,
}

impl RevisablePatternMatcher {
    /// Compile the pattern; `consistency` picks the out-of-order policy.
    pub fn new(
        pattern: Pattern,
        input: &Arc<Schema>,
        strategy: SkipStrategy,
        consistency: ConsistencyLevel,
    ) -> Result<RevisablePatternMatcher> {
        let inner = PatternMatcher::new(pattern.clone(), input, strategy)?;
        Ok(RevisablePatternMatcher {
            pattern,
            input: Arc::clone(input),
            strategy,
            consistency,
            inner,
            history: Vec::new(),
            live: Vec::new(),
            final_wm: i64::MIN,
            emit_seq: 0,
            late_events: 0,
            late_admitted: 0,
            overflow_drops: 0,
            retractions: 0,
            label: "revisable_pattern".to_string(),
        })
    }

    /// The configured consistency level.
    pub fn consistency(&self) -> ConsistencyLevel {
        self.consistency
    }

    /// Feed one event; returns emitted deltas.
    pub fn push(&mut self, event: &Event) -> Result<Vec<Event>> {
        let mut out = Vec::new();
        self.on_event(event, &mut out)?;
        Ok(out)
    }

    /// Deliver a watermark; returns emitted (now final) matches.
    pub fn advance_watermark(&mut self, wm: TimestampMs) -> Result<Vec<Event>> {
        let mut out = Vec::new();
        self.on_watermark(wm, &mut out)?;
        Ok(out)
    }

    fn fresh_id(&mut self, mut e: Event) -> Event {
        self.emit_seq += 1;
        e.id = EventId(self.emit_seq);
        e
    }

    /// Replay the sorted history through a fresh NFA and reconcile the
    /// resulting match multiset with what was already emitted.
    fn rebuild(&mut self, out: &mut Vec<Event>) -> Result<()> {
        self.history.sort_by_key(|e| (e.timestamp, e.id));
        let mut fresh = PatternMatcher::new(self.pattern.clone(), &self.input, self.strategy)?;
        fresh.max_runs = self.inner.max_runs;
        let mut replayed = Vec::new();
        for e in &self.history {
            replayed.extend(fresh.push(e)?);
        }
        self.overflow_drops += self.inner.overflow_drops;
        self.inner = fresh;
        // Matches ending at or before the watermark are final: they were
        // either already emitted (and pruned from `live`) or can no
        // longer be revised — exclude them from reconciliation.
        replayed.retain(|m| m.timestamp.0 > self.final_wm);

        // Multiset diff by payload (the payload embeds start/end bounds).
        let key = |e: &Event| e.payload.to_string();
        let mut counts: HashMap<String, usize> = HashMap::new();
        for m in &replayed {
            *counts.entry(key(m)).or_default() += 1;
        }
        // Old matches still produced survive; the rest are retracted.
        let mut survivors = Vec::new();
        for old in std::mem::take(&mut self.live) {
            match counts.get_mut(&key(&old)) {
                Some(c) if *c > 0 => {
                    *c -= 1;
                    survivors.push(old);
                }
                _ => {
                    self.retractions += 1;
                    let r = old.to_retraction();
                    out.push(self.fresh_id(r));
                }
            }
        }
        // New matches beyond the old multiset are fresh inserts.
        for m in replayed {
            let c = counts.get_mut(&key(&m)).expect("counted above");
            if *c > 0 {
                *c -= 1;
                let e = self.fresh_id(m);
                survivors.push(e.clone());
                out.push(e);
            }
        }
        self.live = survivors;
        Ok(())
    }
}

impl Operator for RevisablePatternMatcher {
    fn on_event(&mut self, event: &Event, out: &mut Vec<Event>) -> Result<()> {
        match self.consistency {
            ConsistencyLevel::Watermark => {
                if event.timestamp.0 <= self.final_wm {
                    self.late_events += 1;
                    return Ok(());
                }
                if event.is_retraction() {
                    // The original insert is still buffered (anything
                    // released is ≤ the watermark, where retractions are
                    // dropped as late) — cancel it in place.
                    if let Some(i) = self.history.iter().position(|e| {
                        e.timestamp == event.timestamp
                            && e.id == event.id
                            && e.payload == event.payload
                    }) {
                        self.history.remove(i);
                    }
                } else {
                    self.history.push(event.clone());
                }
            }
            ConsistencyLevel::Speculative => {
                // An event can only affect matches ending after itself
                // and within `within` of it; beyond that it is final.
                if event.timestamp.0.saturating_add(self.pattern.within_ms) <= self.final_wm {
                    self.late_events += 1;
                    return Ok(());
                }
                let in_order = !event.is_retraction()
                    && self
                        .history
                        .last()
                        .is_none_or(|l| (l.timestamp, l.id) <= (event.timestamp, event.id));
                if in_order {
                    // Fast path: the NFA state already reflects every
                    // earlier event, so feed it incrementally.
                    self.history.push(event.clone());
                    let matches = self.inner.push(event)?;
                    for m in matches {
                        let e = self.fresh_id(m);
                        self.live.push(e.clone());
                        out.push(e);
                    }
                } else {
                    self.late_admitted += 1;
                    if event.is_retraction() {
                        match self.history.iter().position(|e| {
                            e.timestamp == event.timestamp
                                && e.id == event.id
                                && e.payload == event.payload
                        }) {
                            Some(i) => {
                                self.history.remove(i);
                            }
                            // Unknown (or already-final) event: no-op.
                            None => return Ok(()),
                        }
                    } else {
                        self.history.push(event.clone());
                    }
                    self.rebuild(out)?;
                }
            }
        }
        Ok(())
    }

    fn on_watermark(&mut self, wm: TimestampMs, out: &mut Vec<Event>) -> Result<()> {
        self.final_wm = self.final_wm.max(wm.0);
        match self.consistency {
            ConsistencyLevel::Watermark => {
                // Release buffered events ≤ wm to the NFA in event-time
                // order; their matches are final.
                self.history
                    .sort_by_key(|e| (e.timestamp, e.id));
                let rest = self
                    .history
                    .iter()
                    .position(|e| e.timestamp.0 > wm.0)
                    .unwrap_or(self.history.len());
                let release: Vec<Event> = self.history.drain(..rest).collect();
                for e in release {
                    for m in self.inner.push(&e)? {
                        let e = self.fresh_id(m);
                        out.push(e);
                    }
                }
                self.inner.on_watermark(wm, out)?;
            }
            ConsistencyLevel::Speculative => {
                // Finalize matches ending ≤ wm and shed history that can
                // no longer participate in a revisable match.
                self.live.retain(|m| m.timestamp.0 > wm.0);
                let horizon = wm.0.saturating_sub(self.pattern.within_ms);
                self.history.retain(|e| e.timestamp.0 >= horizon);
                self.inner.on_watermark(wm, out)?;
            }
        }
        Ok(())
    }

    fn output_schema(&self) -> Arc<Schema> {
        self.inner.output_schema()
    }

    fn name(&self) -> &str {
        &self.label
    }

    fn state_size(&self) -> usize {
        self.history.len() + self.live.len() + self.inner.state_size()
    }

    fn op_stats(&self) -> OpStats {
        OpStats {
            late_events: self.late_events,
            late_admitted: self.late_admitted,
            pane_reopens: 0,
            retractions: self.retractions,
            overflow_drops: self.overflow_drops + self.inner.overflow_drops,
        }
    }
}

/// E6 baseline: enumerate subsequences by nested scanning over a buffer.
/// Supports plain SEQ patterns (no optional/kleene/negation) with
/// `SkipTillAny` semantics.
pub struct NaiveMatcher {
    preds: Vec<CompiledExpr>,
    within_ms: i64,
    buffer: Vec<(TimestampMs, Record)>,
}

impl NaiveMatcher {
    /// Compile the baseline matcher.
    pub fn new(pattern: &Pattern, input: &Arc<Schema>) -> Result<NaiveMatcher> {
        if pattern
            .steps
            .iter()
            .any(|s| s.optional || s.kleene || s.negated)
        {
            return Err(Error::Invalid(
                "naive matcher supports plain SEQ patterns only".into(),
            ));
        }
        Ok(NaiveMatcher {
            preds: pattern
                .steps
                .iter()
                .map(|s| Ok(CompiledExpr::compile(&s.predicate.bind_predicate(input)?)))
                .collect::<Result<_>>()?,
            within_ms: pattern.within_ms,
            buffer: Vec::new(),
        })
    }

    /// Feed one event; returns the number of completed matches ending at
    /// this event (the count is what E6 compares — materializing records
    /// would only slow the baseline further).
    pub fn push(&mut self, event: &Event) -> Result<u64> {
        let ts = event.timestamp;
        let horizon = ts.minus(self.within_ms);
        self.buffer.retain(|(t, _)| *t >= horizon);
        self.buffer.push((ts, event.payload.clone()));

        // The new event can only complete matches as the LAST step.
        let k = self.preds.len();
        if !self.preds[k - 1].matches(&event.payload)? {
            return Ok(0);
        }
        // Count subsequences for steps 0..k-1 ending strictly before the
        // last buffer element, with dynamic counting (still O(n·k) per
        // event — the quadratic blowup is over the window, which is the
        // point of the baseline).
        let n = self.buffer.len();
        // ways[j] = number of ways to match steps 0..=j using events seen
        // so far (prefix), constrained to the within window from each
        // start — approximated by the buffer horizon (events outside the
        // window were dropped above).
        let mut ways = vec![0u64; k];
        for i in 0..n - 1 {
            let rec = &self.buffer[i].1;
            for j in (0..k - 1).rev() {
                if self.preds[j].matches(rec)? {
                    let add = if j == 0 { 1 } else { ways[j - 1] };
                    ways[j] += add;
                }
            }
        }
        Ok(if k == 1 { 1 } else { ways[k - 2] })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evdb_expr::parse;

    fn schema() -> Arc<Schema> {
        Schema::of(&[("kind", DataType::Str), ("v", DataType::Float)])
    }

    fn ev(ts: i64, kind: &str, v: f64) -> Event {
        Event::new(
            EventId(ts as u64),
            "s",
            TimestampMs(ts),
            Record::from_iter([Value::from(kind), Value::Float(v)]),
            schema(),
        )
    }

    fn seq_abc(within: i64) -> Pattern {
        Pattern::new(
            vec![
                Step::new("a", parse("kind = 'A'").unwrap()),
                Step::new("b", parse("kind = 'B'").unwrap()),
                Step::new("c", parse("kind = 'C'").unwrap()),
            ],
            within,
        )
        .unwrap()
    }

    #[test]
    fn basic_seq_skip_till_next() {
        let mut m =
            PatternMatcher::new(seq_abc(1_000), &schema(), SkipStrategy::SkipTillNext).unwrap();
        assert!(m.push(&ev(1, "A", 1.0)).unwrap().is_empty());
        assert!(m.push(&ev(2, "X", 0.0)).unwrap().is_empty()); // ignored
        assert!(m.push(&ev(3, "B", 2.0)).unwrap().is_empty());
        let matches = m.push(&ev(4, "C", 3.0)).unwrap();
        assert_eq!(matches.len(), 1);
        let p = &matches[0].payload;
        assert_eq!(p.get(0), Some(&Value::Timestamp(TimestampMs(1))));
        assert_eq!(p.get(1), Some(&Value::Timestamp(TimestampMs(4))));
        // a_kind, a_v, b_kind, b_v, c_kind, c_v
        assert_eq!(p.get(2), Some(&Value::from("A")));
        assert_eq!(p.get(5), Some(&Value::Float(2.0)));
        assert_eq!(p.get(6), Some(&Value::from("C")));
    }

    #[test]
    fn strict_contiguity_requires_adjacency() {
        let mut m = PatternMatcher::new(
            seq_abc(1_000),
            &schema(),
            SkipStrategy::StrictContiguity,
        )
        .unwrap();
        m.push(&ev(1, "A", 1.0)).unwrap();
        m.push(&ev(2, "X", 0.0)).unwrap(); // kills the run
        m.push(&ev(3, "B", 2.0)).unwrap();
        assert!(m.push(&ev(4, "C", 3.0)).unwrap().is_empty());

        let mut m = PatternMatcher::new(
            seq_abc(1_000),
            &schema(),
            SkipStrategy::StrictContiguity,
        )
        .unwrap();
        m.push(&ev(1, "A", 1.0)).unwrap();
        m.push(&ev(2, "B", 2.0)).unwrap();
        assert_eq!(m.push(&ev(3, "C", 3.0)).unwrap().len(), 1);
    }

    #[test]
    fn skip_till_any_enumerates_subsequences() {
        // Both strategies start one run per candidate first event; they
        // differ on *mid-pattern* choices. With A B B C, the B step can
        // bind to either B under SkipTillAny (2 matches) but only to the
        // first B under SkipTillNext (1 match).
        let mut m =
            PatternMatcher::new(seq_abc(1_000), &schema(), SkipStrategy::SkipTillAny).unwrap();
        m.push(&ev(1, "A", 1.0)).unwrap();
        m.push(&ev(2, "B", 1.0)).unwrap();
        m.push(&ev(3, "B", 2.0)).unwrap();
        let matches = m.push(&ev(4, "C", 4.0)).unwrap();
        assert_eq!(matches.len(), 2);

        let mut m =
            PatternMatcher::new(seq_abc(1_000), &schema(), SkipStrategy::SkipTillNext).unwrap();
        m.push(&ev(1, "A", 1.0)).unwrap();
        m.push(&ev(2, "B", 1.0)).unwrap();
        m.push(&ev(3, "B", 2.0)).unwrap();
        assert_eq!(m.push(&ev(4, "C", 4.0)).unwrap().len(), 1);

        // Two candidate first events start two runs under either strategy.
        let mut m =
            PatternMatcher::new(seq_abc(1_000), &schema(), SkipStrategy::SkipTillNext).unwrap();
        m.push(&ev(1, "A", 1.0)).unwrap();
        m.push(&ev(2, "A", 2.0)).unwrap();
        m.push(&ev(3, "B", 3.0)).unwrap();
        assert_eq!(m.push(&ev(4, "C", 4.0)).unwrap().len(), 2);
    }

    #[test]
    fn within_bound_expires_runs() {
        let mut m =
            PatternMatcher::new(seq_abc(100), &schema(), SkipStrategy::SkipTillNext).unwrap();
        m.push(&ev(1, "A", 1.0)).unwrap();
        m.push(&ev(50, "B", 2.0)).unwrap();
        assert!(m.push(&ev(200, "C", 3.0)).unwrap().is_empty()); // expired
        assert_eq!(m.active_runs(), 0);
    }

    #[test]
    fn negation_guard_kills() {
        let p = Pattern::new(
            vec![
                Step::new("a", parse("kind = 'A'").unwrap()),
                Step::new("no_x", parse("kind = 'X'").unwrap()).negation(),
                Step::new("b", parse("kind = 'B'").unwrap()),
            ],
            1_000,
        )
        .unwrap();
        let mut m = PatternMatcher::new(p.clone(), &schema(), SkipStrategy::SkipTillNext).unwrap();
        m.push(&ev(1, "A", 1.0)).unwrap();
        m.push(&ev(2, "X", 0.0)).unwrap(); // guard hit
        assert!(m.push(&ev(3, "B", 2.0)).unwrap().is_empty());

        let mut m = PatternMatcher::new(p, &schema(), SkipStrategy::SkipTillNext).unwrap();
        m.push(&ev(1, "A", 1.0)).unwrap();
        m.push(&ev(2, "Y", 0.0)).unwrap(); // harmless
        assert_eq!(m.push(&ev(3, "B", 2.0)).unwrap().len(), 1);
    }

    #[test]
    fn optional_steps_may_be_skipped() {
        let p = Pattern::new(
            vec![
                Step::new("a", parse("kind = 'A'").unwrap()),
                Step::new("m", parse("kind = 'M'").unwrap()).optional(),
                Step::new("b", parse("kind = 'B'").unwrap()),
            ],
            1_000,
        )
        .unwrap();
        // Skipped: A then B directly.
        let mut m = PatternMatcher::new(p.clone(), &schema(), SkipStrategy::SkipTillNext).unwrap();
        m.push(&ev(1, "A", 1.0)).unwrap();
        let out = m.push(&ev(2, "B", 2.0)).unwrap();
        assert_eq!(out.len(), 1);
        // m_kind column is NULL.
        let m_kind = out[0].payload.get(4).unwrap();
        assert!(m_kind.is_null());

        // Taken: A M B.
        let mut m = PatternMatcher::new(p, &schema(), SkipStrategy::SkipTillNext).unwrap();
        m.push(&ev(1, "A", 1.0)).unwrap();
        m.push(&ev(2, "M", 5.0)).unwrap();
        let out = m.push(&ev(3, "B", 2.0)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload.get(4), Some(&Value::from("M")));
    }

    #[test]
    fn kleene_counts_and_extends() {
        let p = Pattern::new(
            vec![
                Step::new("a", parse("kind = 'A'").unwrap()).one_or_more(),
                Step::new("b", parse("kind = 'B'").unwrap()),
            ],
            1_000,
        )
        .unwrap();
        let mut m = PatternMatcher::new(p, &schema(), SkipStrategy::SkipTillNext).unwrap();
        m.push(&ev(1, "A", 1.0)).unwrap();
        m.push(&ev(2, "A", 2.0)).unwrap();
        m.push(&ev(3, "A", 3.0)).unwrap();
        let out = m.push(&ev(4, "B", 9.0)).unwrap();
        // Greedy run absorbed all three A's; SkipTillNext also tracked the
        // shorter suffix runs started by later A's.
        assert!(!out.is_empty());
        // The first (longest) match carries count 3 and last A value 3.0.
        let p0 = &out[0].payload;
        let count_idx = out[0].schema.index_of("a_count").unwrap();
        let av_idx = out[0].schema.index_of("a_v").unwrap();
        let counts: Vec<i64> = out
            .iter()
            .map(|e| e.payload.get(count_idx).unwrap().as_int().unwrap())
            .collect();
        assert!(counts.contains(&3));
        let _ = (p0, av_idx);
    }

    #[test]
    fn runs_past_max_runs_are_dropped_and_counted() {
        // Every A opens a run that skip-till-any keeps open: with a cap
        // of 2, each A past the second drops one, and the counter says so
        // — in the matcher, in its op stats, through the revisable
        // wrapper and in the runtime's totals.
        let mut m = PatternMatcher::new(seq_abc(1_000), &schema(), SkipStrategy::SkipTillAny).unwrap();
        m.max_runs = 2;
        for ts in 1..=5 {
            m.push(&ev(ts, "A", 1.0)).unwrap();
        }
        assert_eq!(m.active_runs(), 2);
        assert_eq!(m.overflow_drops, 3);
        assert_eq!(m.op_stats().overflow_drops, 3);

        let mut r = RevisablePatternMatcher::new(
            seq_abc(1_000),
            &schema(),
            SkipStrategy::SkipTillAny,
            ConsistencyLevel::Speculative,
        )
        .unwrap();
        r.inner.max_runs = 2;
        for ts in [2, 3, 4, 5] {
            r.push(&ev(ts, "A", 1.0)).unwrap();
        }
        assert_eq!(r.op_stats().overflow_drops, 2);
        // A late A rebuilds the matcher from history: the replaced
        // matcher's drops stay counted beside the rebuilt one's.
        r.push(&ev(1, "A", 1.0)).unwrap();
        assert_eq!(r.op_stats().overflow_drops, 2 + 3);

        let rt = crate::runtime::StreamRuntime::new(0);
        rt.create_stream("s", schema()).unwrap();
        rt.register_query("p", "s", crate::op::Pipeline::new(vec![Box::new(m)]))
            .unwrap();
        rt.push_event(&ev(6, "A", 1.0)).unwrap();
        assert_eq!(rt.cq_delta_stats().overflow_drops, 4);
    }

    #[test]
    fn pattern_validation() {
        assert!(Pattern::new(vec![], 100).is_err());
        assert!(Pattern::new(
            vec![Step::new("a", parse("kind = 'A'").unwrap())],
            0
        )
        .is_err());
        assert!(Pattern::new(
            vec![Step::new("a", parse("kind = 'A'").unwrap()).negation()],
            100
        )
        .is_err());
        assert!(Pattern::new(
            vec![
                Step::new("a", parse("kind = 'A'").unwrap()),
                Step::new("b", parse("kind = 'B'").unwrap())
                    .negation()
                    .optional(),
            ],
            100
        )
        .is_err());
    }

    // ---- watermark behavior of the core NFA (satellite: pins the
    // previously-untested on_watermark path) ----

    #[test]
    fn watermark_prunes_timed_out_partial_runs_silently() {
        let mut m =
            PatternMatcher::new(seq_abc(100), &schema(), SkipStrategy::SkipTillNext).unwrap();
        m.push(&ev(1, "A", 1.0)).unwrap();
        m.push(&ev(50, "B", 2.0)).unwrap();
        assert_eq!(m.active_runs(), 1);
        // The watermark passes the WITHIN horizon: the partial match can
        // never complete. It is pruned and emits NOTHING — timed-out
        // partials are not matches.
        let mut out = Vec::new();
        m.on_watermark(TimestampMs(500), &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(m.active_runs(), 0);
        // Even a C now arrives too late to resurrect it.
        assert!(m.push(&ev(501, "C", 3.0)).unwrap().is_empty());
    }

    #[test]
    fn watermark_keeps_runs_inside_the_within_bound() {
        let mut m =
            PatternMatcher::new(seq_abc(1_000), &schema(), SkipStrategy::SkipTillNext).unwrap();
        m.push(&ev(100, "A", 1.0)).unwrap();
        let mut out = Vec::new();
        m.on_watermark(TimestampMs(900), &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(m.active_runs(), 1); // 900 − 100 ≤ 1000: still viable
        m.push(&ev(950, "B", 2.0)).unwrap();
        assert_eq!(m.push(&ev(1_000, "C", 3.0)).unwrap().len(), 1);
    }

    #[test]
    fn completed_match_emits_exactly_once_across_watermarks() {
        let mut m =
            PatternMatcher::new(seq_abc(1_000), &schema(), SkipStrategy::SkipTillNext).unwrap();
        m.push(&ev(1, "A", 1.0)).unwrap();
        m.push(&ev(2, "B", 2.0)).unwrap();
        let matches = m.push(&ev(3, "C", 3.0)).unwrap();
        assert_eq!(matches.len(), 1); // emitted at completion…
        let mut out = Vec::new();
        m.on_watermark(TimestampMs(5_000), &mut out).unwrap();
        m.on_watermark(TimestampMs(10_000), &mut out).unwrap();
        assert!(out.is_empty()); // …and never again
    }

    // ---- revisable wrapper (D12) ----

    fn rev(
        within: i64,
        strategy: SkipStrategy,
        level: ConsistencyLevel,
    ) -> RevisablePatternMatcher {
        RevisablePatternMatcher::new(seq_abc(within), &schema(), strategy, level).unwrap()
    }

    #[test]
    fn watermark_level_reorders_before_matching() {
        let mut m = rev(1_000, SkipStrategy::SkipTillNext, ConsistencyLevel::Watermark);
        // Arrival order B, A, C — event-time order A, B, C.
        assert!(m.push(&ev(2, "B", 2.0)).unwrap().is_empty());
        assert!(m.push(&ev(1, "A", 1.0)).unwrap().is_empty());
        assert!(m.push(&ev(3, "C", 3.0)).unwrap().is_empty());
        let out = m.advance_watermark(TimestampMs(10)).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.iter().all(|e| !e.is_retraction()));
        // Late event behind the watermark is dropped and counted.
        assert!(m.push(&ev(5, "A", 9.0)).unwrap().is_empty());
        assert_eq!(m.late_events, 1);
    }

    #[test]
    fn speculative_level_retracts_matches_invalidated_by_retraction() {
        let mut m = rev(1_000, SkipStrategy::SkipTillNext, ConsistencyLevel::Speculative);
        m.push(&ev(1, "A", 1.0)).unwrap();
        m.push(&ev(2, "B", 2.0)).unwrap();
        let out = m.push(&ev(3, "C", 3.0)).unwrap();
        assert_eq!(out.len(), 1); // speculative match emitted immediately
        // The B is revised away: the match loses a constituent event.
        let deltas = m.push(&ev(2, "B", 2.0).to_retraction()).unwrap();
        assert_eq!(deltas.len(), 1);
        assert!(deltas[0].is_retraction());
        assert_eq!(deltas[0].payload, out[0].payload);
        assert_eq!(m.retractions, 1);
        assert_eq!(m.op_stats().retractions, 1);
    }

    #[test]
    fn speculative_level_revises_on_late_events() {
        let mut m = rev(1_000, SkipStrategy::SkipTillNext, ConsistencyLevel::Speculative);
        m.push(&ev(10, "A", 1.0)).unwrap();
        let out = m.push(&ev(30, "C", 3.0)).unwrap();
        assert!(out.is_empty()); // no B yet
        // The missing B arrives late → the match now exists.
        let deltas = m.push(&ev(20, "B", 2.0)).unwrap();
        assert_eq!(deltas.len(), 1);
        assert!(!deltas[0].is_retraction());
        assert_eq!(m.late_admitted, 1);
        // Convergence: same match an in-order run would produce.
        let mut ordered = rev(1_000, SkipStrategy::SkipTillNext, ConsistencyLevel::Speculative);
        ordered.push(&ev(10, "A", 1.0)).unwrap();
        ordered.push(&ev(20, "B", 2.0)).unwrap();
        let expect = ordered.push(&ev(30, "C", 3.0)).unwrap();
        assert_eq!(deltas[0].payload, expect[0].payload);
    }

    #[test]
    fn speculative_finalized_matches_survive_replay_unrepeated() {
        let mut m = rev(100, SkipStrategy::SkipTillNext, ConsistencyLevel::Speculative);
        m.push(&ev(1, "A", 1.0)).unwrap();
        m.push(&ev(2, "B", 2.0)).unwrap();
        assert_eq!(m.push(&ev(3, "C", 3.0)).unwrap().len(), 1);
        // Watermark finalizes the match and sheds history.
        assert!(m.advance_watermark(TimestampMs(200)).unwrap().is_empty());
        assert_eq!(m.state_size(), 0);
        // A late revision attempt beyond finality is dropped, NOT replayed
        // (a replay would re-emit the finalized match).
        assert!(m.push(&ev(2, "B", 2.0).to_retraction()).unwrap().is_empty());
        assert_eq!(m.late_events, 1);
    }

    #[test]
    fn naive_matcher_agrees_with_skip_till_any() {
        let pattern = seq_abc(500);
        let mut nfa =
            PatternMatcher::new(pattern.clone(), &schema(), SkipStrategy::SkipTillAny).unwrap();
        let mut naive = NaiveMatcher::new(&pattern, &schema()).unwrap();

        let mut state = 7u64;
        let mut nfa_total = 0u64;
        let mut naive_total = 0u64;
        for i in 0..400 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let kind = ["A", "B", "C", "X"][(state % 4) as usize];
            let e = ev(i * 10, kind, 1.0);
            nfa_total += nfa.push(&e).unwrap().len() as u64;
            naive_total += naive.push(&e).unwrap();
        }
        assert!(nfa_total > 0, "workload produced no matches");
        assert_eq!(nfa_total, naive_total);
    }
}
