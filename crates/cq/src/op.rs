//! The operator contract and pipeline composition.
//!
//! Operators are push-based: the runtime feeds events (and watermarks) in,
//! operators append derived events to an output buffer. Stateful
//! operators (windows, joins, patterns) hold their state inline; the
//! pipeline as a whole is `Send` so a runtime can own it on a worker
//! thread.

use std::any::Any;
use std::sync::Arc;

use evdb_expr::{BoundExpr, CompiledExpr};
use evdb_types::{Event, Record, Result, Schema, TimestampMs, Value};

use crate::aggregate::{PaneTable, WindowAggregateOp};

/// Per-operator delta/lateness accounting (D9 no-silent-work: every
/// dropped, admitted-late or retracted datum is counted somewhere).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Events too late to admit (beyond the finality horizon) — dropped.
    pub late_events: u64,
    /// Late events admitted into already-emitted state (pane reopens,
    /// pattern revisions) instead of being dropped.
    pub late_admitted: u64,
    /// Already-emitted window panes reopened by a late event.
    pub pane_reopens: u64,
    /// Retraction deltas emitted.
    pub retractions: u64,
    /// Partial pattern matches dropped because a matcher hit its
    /// `max_runs` cap.
    pub overflow_drops: u64,
}

impl OpStats {
    /// Accumulate another operator's counters.
    pub fn absorb(&mut self, other: &OpStats) {
        self.late_events += other.late_events;
        self.late_admitted += other.late_admitted;
        self.pane_reopens += other.pane_reopens;
        self.retractions += other.retractions;
        self.overflow_drops += other.overflow_drops;
    }
}

/// A streaming operator.
pub trait Operator: Send {
    /// Process one input event; push any derived events onto `out`.
    fn on_event(&mut self, event: &Event, out: &mut Vec<Event>) -> Result<()>;

    /// Observe a watermark: "no events with timestamp ≤ `wm` will arrive
    /// any more". Windowed operators close and emit here. Default: no-op.
    fn on_watermark(&mut self, _wm: TimestampMs, _out: &mut Vec<Event>) -> Result<()> {
        Ok(())
    }

    /// The smallest watermark at which [`on_watermark`](Self::on_watermark)
    /// could emit or change state, given the state as it is now: below
    /// it a watermark is a no-op and a [`Pipeline`] skips it (D15).
    /// `TimestampMs(i64::MAX)` means nothing is due. Default: every
    /// watermark is due.
    fn watermark_due(&self) -> TimestampMs {
        TimestampMs(i64::MIN)
    }

    /// Schema of this operator's output events.
    fn output_schema(&self) -> Arc<Schema>;

    /// Diagnostic name.
    fn name(&self) -> &str;

    /// Buffered state held by this operator, in retained items (pane
    /// groups, join rows, pattern runs). Stateless operators report 0.
    fn state_size(&self) -> usize {
        0
    }

    /// Delta/lateness counters. Stateless operators report zeros.
    fn op_stats(&self) -> OpStats {
        OpStats::default()
    }

    /// A pure drop-on-false predicate equivalent to this operator, if
    /// it has one (D15). When the *head* operator exposes this, the
    /// runtime may pre-verify a whole batch through
    /// [`CompiledExpr::eval_batch`] and skip non-matching events
    /// entirely instead of pushing each through the pipeline — sound
    /// only because such an operator is stateless and emits nothing on
    /// a non-match. Default: none.
    fn batch_predicate(&self) -> Option<&CompiledExpr> {
        None
    }

    /// This operator as [`Any`], for operators the runtime may route
    /// specially: a [`WindowAggregateOp`] at a pipeline's head can share
    /// its pane table with other queries (DESIGN.md D5). Default: none.
    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        None
    }
}

/// A linear chain of operators.
pub struct Pipeline {
    /// The stages, head first. Empty only for the operators a shared pane
    /// table left behind ([`Pipeline::take_shared_head`]): an empty
    /// pipeline passes its input through.
    ops: Vec<Box<dyn Operator>>,
    /// Scratch buffers between stages, reused across calls; the last
    /// stage writes straight into the caller's buffer.
    bufs: (Vec<Event>, Vec<Event>),
    /// The earliest [`Operator::watermark_due`] over the stages, refreshed
    /// after every call that can change one.
    due: TimestampMs,
}

/// Run the events in `a` through `stages`, each handling `wm` (if any)
/// after its input, so events a stage emits on the watermark reach the
/// next stage before the watermark does. The last stage appends to
/// `out`; `a` and `b` are scratch.
fn flow(
    stages: &mut [Box<dyn Operator>],
    a: &mut Vec<Event>,
    b: &mut Vec<Event>,
    wm: Option<TimestampMs>,
    out: &mut Vec<Event>,
) -> Result<()> {
    let Some((last, init)) = stages.split_last_mut() else {
        out.append(a);
        return Ok(());
    };
    for op in init {
        b.clear();
        for ev in a.drain(..) {
            op.on_event(&ev, b)?;
        }
        if let Some(wm) = wm {
            op.on_watermark(wm, b)?;
        }
        std::mem::swap(a, b);
    }
    for ev in a.drain(..) {
        last.on_event(&ev, out)?;
    }
    if let Some(wm) = wm {
        last.on_watermark(wm, out)?;
    }
    Ok(())
}

/// One event into `stages`: the first takes it by reference, the rest
/// through [`flow`].
fn enter(
    stages: &mut [Box<dyn Operator>],
    event: &Event,
    a: &mut Vec<Event>,
    b: &mut Vec<Event>,
    out: &mut Vec<Event>,
) -> Result<()> {
    match stages.split_first_mut() {
        None => {
            out.push(event.clone());
            Ok(())
        }
        Some((only, [])) => only.on_event(event, out),
        Some((first, rest)) => {
            a.clear();
            first.on_event(event, a)?;
            flow(rest, a, b, None, out)
        }
    }
}

impl Pipeline {
    /// Build a pipeline from a non-empty operator chain. Callers are
    /// responsible for schema compatibility between stages (the CQL
    /// compiler guarantees it; hand-built pipelines should test it).
    pub fn new(ops: Vec<Box<dyn Operator>>) -> Pipeline {
        assert!(!ops.is_empty(), "pipeline needs at least one operator");
        let mut p = Pipeline {
            ops,
            bufs: (Vec::new(), Vec::new()),
            due: TimestampMs(i64::MIN),
        };
        p.refresh_due();
        p
    }

    /// Schema of the pipeline's output.
    pub fn output_schema(&self) -> Arc<Schema> {
        self.ops.last().expect("non-empty").output_schema()
    }

    /// Total buffered state across all stages (window memory proxy).
    pub fn state_size(&self) -> usize {
        self.ops.iter().map(|op| op.state_size()).sum()
    }

    /// Summed delta/lateness counters across all stages.
    pub fn op_stats(&self) -> OpStats {
        let mut total = OpStats::default();
        for op in &self.ops {
            total.absorb(&op.op_stats());
        }
        total
    }

    fn refresh_due(&mut self) {
        self.due = self
            .ops
            .iter()
            .map(|op| op.watermark_due())
            .min()
            .unwrap_or(TimestampMs(i64::MAX));
    }

    /// Push one event through every stage; returns derived events.
    pub fn push(&mut self, event: &Event) -> Result<Vec<Event>> {
        let mut out = Vec::new();
        self.push_into(event, &mut out)?;
        Ok(out)
    }

    /// [`push`](Self::push), appending the derived events to `out`.
    pub fn push_into(&mut self, event: &Event, out: &mut Vec<Event>) -> Result<()> {
        let (a, b) = &mut self.bufs;
        let result = enter(&mut self.ops, event, a, b, out);
        self.refresh_due();
        result
    }

    /// Push an event the caller has already verified against the head
    /// operator's [`Operator::batch_predicate`], appending the derived
    /// events to `out` — the head stage is skipped (a pure filter passes
    /// the event through unchanged on true, so this is exactly `push`
    /// minus the redundant re-check). The event enters the second stage
    /// by reference.
    pub fn push_verified_into(&mut self, event: &Event, out: &mut Vec<Event>) -> Result<()> {
        let (a, b) = &mut self.bufs;
        let result = enter(&mut self.ops[1..], event, a, b, out);
        self.refresh_due();
        result
    }

    /// The earliest [`Operator::watermark_due`] over the stages: a
    /// watermark below it changes nothing.
    pub(crate) fn watermark_due(&self) -> TimestampMs {
        self.due
    }

    /// The head operator's drop-on-false predicate, if it exposes one
    /// (see [`Operator::batch_predicate`]): the hook the runtime's
    /// batched ingest uses to pre-verify events before paying the
    /// per-event push.
    pub fn head_predicate(&self) -> Option<&CompiledExpr> {
        self.ops.first().and_then(|op| op.batch_predicate())
    }

    /// Push a watermark through every stage. Events emitted by stage `i`
    /// on the watermark are processed by stages `i+1…` before those
    /// stages see the watermark themselves (in-order delivery).
    pub fn advance_watermark(&mut self, wm: TimestampMs) -> Result<Vec<Event>> {
        let mut out = Vec::new();
        self.advance_watermark_into(wm, &mut out)?;
        Ok(out)
    }

    /// [`advance_watermark`](Self::advance_watermark), appending the
    /// derived events to `out`. A watermark below every stage's
    /// [`Operator::watermark_due`] changes nothing and is skipped.
    pub fn advance_watermark_into(&mut self, wm: TimestampMs, out: &mut Vec<Event>) -> Result<()> {
        if wm < self.due {
            return Ok(());
        }
        let (a, b) = &mut self.bufs;
        a.clear();
        let result = flow(&mut self.ops, a, b, Some(wm), out);
        self.refresh_due();
        result
    }

    /// Feed `rows` — what an upstream stage emitted — through every
    /// stage, then the watermark if one is given: exactly the stages'
    /// part of a longer pipeline's push or watermark. `rows` is drained.
    pub(crate) fn feed_rows_into(
        &mut self,
        rows: &mut Vec<Event>,
        wm: Option<TimestampMs>,
        out: &mut Vec<Event>,
    ) -> Result<()> {
        if rows.is_empty() && wm.is_none_or(|wm| wm < self.due) {
            return Ok(());
        }
        let result = flow(&mut self.ops, rows, &mut self.bufs.1, wm, out);
        rows.clear();
        self.refresh_due();
        result
    }

    /// Take the head operator's pane table out if it is a shareable
    /// time-window aggregate (see [`WindowAggregateOp`]), leaving the
    /// stages after it — possibly none.
    pub(crate) fn take_shared_head(&mut self) -> Option<PaneTable> {
        let table = self
            .ops
            .first_mut()?
            .as_any_mut()?
            .downcast_mut::<WindowAggregateOp>()?
            .take_shareable_table()?;
        self.ops.remove(0);
        self.refresh_due();
        Some(table)
    }
}

/// Stateless predicate filter.
pub struct FilterOp {
    predicate: CompiledExpr,
    schema: Arc<Schema>,
    label: String,
}

impl FilterOp {
    /// Filter events of `schema` by `predicate` (already bound to it).
    /// The predicate is compiled to bytecode here, once per query.
    pub fn new(predicate: BoundExpr, schema: Arc<Schema>) -> FilterOp {
        FilterOp {
            predicate: CompiledExpr::compile(&predicate),
            schema,
            label: "filter".to_string(),
        }
    }
}

impl Operator for FilterOp {
    fn on_event(&mut self, event: &Event, out: &mut Vec<Event>) -> Result<()> {
        if self.predicate.matches(&event.payload)? {
            out.push(event.clone());
        }
        Ok(())
    }

    fn output_schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn name(&self) -> &str {
        &self.label
    }

    fn watermark_due(&self) -> TimestampMs {
        TimestampMs(i64::MAX) // stateless
    }

    fn batch_predicate(&self) -> Option<&CompiledExpr> {
        // Stateless drop-on-false: exactly the shape the batched
        // pre-verify is allowed to short-circuit.
        Some(&self.predicate)
    }
}

/// Projection with computed columns: each output field is an expression
/// over the input record.
pub struct ProjectOp {
    columns: Vec<Column>,
    out_schema: Arc<Schema>,
    label: String,
}

/// One output column of a projection.
enum Column {
    /// A plain input field, copied without entering the VM.
    Field(usize),
    /// Anything else, compiled to bytecode.
    Computed(CompiledExpr),
}

impl ProjectOp {
    /// `exprs` are the output columns' (bound) defining expressions, in
    /// `out_schema`'s order; each that is not a plain field is compiled
    /// to bytecode here.
    pub fn new(exprs: Vec<BoundExpr>, out_schema: Arc<Schema>) -> ProjectOp {
        assert_eq!(exprs.len(), out_schema.len());
        let column = |e: &BoundExpr| match e {
            BoundExpr::Field(i) => Column::Field(*i),
            e => Column::Computed(CompiledExpr::compile(e)),
        };
        ProjectOp {
            columns: exprs.iter().map(column).collect(),
            out_schema,
            label: "project".to_string(),
        }
    }
}

impl Operator for ProjectOp {
    fn on_event(&mut self, event: &Event, out: &mut Vec<Event>) -> Result<()> {
        let mut values = Vec::with_capacity(self.columns.len());
        for c in &self.columns {
            values.push(match c {
                // What the VM's field load yields: NULL past the record.
                Column::Field(i) => event.payload.get(*i).cloned().unwrap_or(Value::Null),
                Column::Computed(e) => e.eval(&event.payload)?,
            });
        }
        out.push(event.with_payload(Record::new(values), Arc::clone(&self.out_schema)));
        Ok(())
    }

    fn watermark_due(&self) -> TimestampMs {
        TimestampMs(i64::MAX) // stateless
    }

    fn output_schema(&self) -> Arc<Schema> {
        Arc::clone(&self.out_schema)
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// Helper shared by aggregate/join operators: extract a grouping key.
pub(crate) fn key_of(record: &Record, key_fields: &[usize]) -> Vec<Value> {
    key_fields
        .iter()
        .map(|i| record.get(*i).cloned().unwrap_or(Value::Null))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use evdb_expr::parse;
    use evdb_types::{DataType, EventId};

    fn schema() -> Arc<Schema> {
        Schema::of(&[("sym", DataType::Str), ("px", DataType::Float)])
    }

    fn ev(id: u64, sym: &str, px: f64) -> Event {
        Event::new(
            EventId(id),
            "ticks",
            TimestampMs(id as i64),
            Record::from_iter([Value::from(sym), Value::Float(px)]),
            schema(),
        )
    }

    #[test]
    fn filter_then_project() {
        let s = schema();
        let filter = FilterOp::new(
            parse("px > 100").unwrap().bind_predicate(&s).unwrap(),
            Arc::clone(&s),
        );
        let out_schema = Schema::of(&[("sym", DataType::Str), ("px2", DataType::Float)]);
        let project = ProjectOp::new(
            vec![
                parse("sym").unwrap().bind(&s).unwrap(),
                parse("px * 2").unwrap().bind(&s).unwrap(),
            ],
            Arc::clone(&out_schema),
        );
        let mut p = Pipeline::new(vec![Box::new(filter), Box::new(project)]);
        assert_eq!(p.output_schema(), out_schema);

        assert!(p.push(&ev(1, "A", 50.0)).unwrap().is_empty());
        let out = p.push(&ev(2, "A", 150.0)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload, Record::from_iter([Value::from("A"), Value::Float(300.0)]));
        assert_eq!(out[0].id, EventId(2)); // identity preserved
    }

    #[test]
    fn a_projection_equals_its_columns_evaluated_one_by_one() {
        // Plain fields (one of them NULL on the second event), computed
        // columns and a constant.
        let s = Schema::new(vec![
            evdb_types::FieldDef::nullable("sym", DataType::Str),
            evdb_types::FieldDef::required("px", DataType::Float),
        ])
        .unwrap();
        let texts = ["px", "sym", "px * 2", "length(sym)", "px", "7"];
        let bind = |t: &str| parse(t).unwrap().bind(&s).unwrap();
        let out_schema = Schema::of(&[
            ("a", DataType::Float),
            ("b", DataType::Str),
            ("c", DataType::Float),
            ("d", DataType::Int),
            ("e", DataType::Float),
            ("f", DataType::Int),
        ]);
        let mut project = ProjectOp::new(texts.map(bind).into(), out_schema);
        let copied = project.columns.iter().filter(|c| matches!(c, Column::Field(_)));
        assert_eq!(copied.count(), 3);
        for sym in [Value::from("A"), Value::Null] {
            let payload = Record::from_iter([sym, Value::Float(2.5)]);
            let event = Event::new(EventId(1), "ticks", TimestampMs(1), payload, Arc::clone(&s));
            let mut out = Vec::new();
            project.on_event(&event, &mut out).unwrap();
            let want = texts.map(|t| CompiledExpr::compile(&bind(t)).eval(&event.payload).unwrap());
            assert_eq!(out[0].payload, Record::from_iter(want));
            assert_eq!(out[0].id, event.id);
        }
    }

    #[test]
    fn watermark_passes_through_stateless_ops() {
        let s = schema();
        let filter = FilterOp::new(
            parse("px > 0").unwrap().bind_predicate(&s).unwrap(),
            Arc::clone(&s),
        );
        let mut p = Pipeline::new(vec![Box::new(filter)]);
        assert!(p.advance_watermark(TimestampMs(100)).unwrap().is_empty());
    }
}
