//! Windowed group-by aggregation.
//!
//! Tumbling and sliding windows fold each event into a per-**pane**
//! partial accumulator as it arrives (a pane is the GCD slice of the
//! window: the slide for sliding windows, the width for tumbling).
//! Closing a window merges its panes' partials: O(panes) per close
//! instead of O(events), and an event is touched exactly once however
//! many sliding windows overlap it. There is one execution path; the
//! reference it is tested against (`tests/prop_cq.rs`) computes each
//! window from its definition and shares no code with this module.
//!
//! Count and session windows are inherently per-group/per-event and share
//! one implementation path (they have no panes).
//!
//! # Consistency levels (DESIGN.md D12)
//!
//! Time windows run at one of two [`ConsistencyLevel`]s:
//!
//! * **Watermark** (default) — a window is emitted only once the
//!   watermark passes its end, so every output row is final and the
//!   stream is retraction-free. Events whose every containing window is
//!   already final are dropped (`late_events`).
//! * **Speculative** — a window is emitted as soon as event time passes
//!   its end (assume in-order arrival, answer now). A late event landing
//!   inside an already-emitted, not-yet-final window *re-opens* it: the
//!   operator emits a retraction of the stale row followed by the
//!   corrected insert. Finality is still the watermark: once a window's
//!   end is ≤ the watermark its panes and emitted-row memory are pruned
//!   and older events are dropped. Per D9 every path is counted:
//!   `late_admitted`, `pane_reopens`, `retractions`, `late_events`.
//!
//! Count and session windows are defined by arrival order/gaps rather
//! than event-time boundaries, so the consistency level does not change
//! their behavior.
//!
//! Tumbling and sliding windows keep their panes in a `PaneTable`: a
//! standalone aggregate is a table of one, and the runtime lets queries
//! whose aggregates read the same panes (one stream, pane width and
//! group-by) share one table, so an event is folded once for all of them.
//!
//! # Cost contract (time windows, DESIGN.md D5)
//!
//! The runtime advances a stream's watermark after every event and hands
//! it to each aggregate that has something due, so what an event pays is
//! one fold per table *plus* the steps of the readers it changes:
//!
//! * **Per event:** one (pane, group) cell update plus O(1). The fold
//!   reads plain-field inputs and a one-field group key in place
//!   (computed arguments and longer keys go into reused buffers), so it
//!   allocates nothing when the cell exists. A
//!   watermark that closes nothing is not due (`watermark_due`: the end
//!   of the first window left to emit that holds data), and pruning only
//!   looks at the oldest retained key. Neither depends on `width /
//!   slide`. A table's members add nothing to an event their floors
//!   admit unless they are Speculative (one eager step each) or the
//!   watermark reaches the table's cached due.
//! * **Per close:** O(panes × groups) of the closing windows — merging
//!   their panes — plus one ordered map probe per window that has data,
//!   never a walk over empty starts.
//!   A pane is dropped once, when its last containing window is final.
//! * **Per late event (Speculative):** a merge of its group's panes for
//!   each emitted, not-yet-final window it revises; an in-order event
//!   revises none and walks none.
//!
//! Session windows scan every open group per watermark (O(groups)).

use std::collections::{btree_map, BTreeMap, HashMap};
use std::sync::Arc;

use evdb_expr::{typecheck, CompiledExpr, Expr};
use evdb_types::{
    DataType, Error, Event, EventId, FieldDef, Record, Result, Schema, TimestampMs, Value,
};

use crate::delta::ConsistencyLevel;
use crate::op::{OpStats, Operator};
use crate::window::WindowSpec;

/// Aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count (`count(*)` when no field, non-null count with a field).
    Count,
    /// Numeric sum.
    Sum,
    /// Numeric mean.
    Avg,
    /// Minimum (any ordered type).
    Min,
    /// Maximum (any ordered type).
    Max,
    /// Sample standard deviation (Welford; mergeable).
    StdDev,
    /// Value of the earliest event in the window (by event time).
    First,
    /// Value of the latest event in the window.
    Last,
}

impl AggFunc {
    /// Parse a CQL function name.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "avg" => AggFunc::Avg,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "stddev" => AggFunc::StdDev,
            "first" => AggFunc::First,
            "last" => AggFunc::Last,
            _ => return None,
        })
    }

    /// Output type given the aggregated field's type.
    pub fn output_type(self, field_type: Option<DataType>) -> DataType {
        match self {
            AggFunc::Count => DataType::Int,
            AggFunc::Sum | AggFunc::Avg | AggFunc::StdDev => DataType::Float,
            AggFunc::Min | AggFunc::Max | AggFunc::First | AggFunc::Last => {
                field_type.unwrap_or(DataType::Float)
            }
        }
    }
}

/// One aggregate column.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Input field name (`None` for `count(*)` or when `expr` is set).
    pub field: Option<String>,
    /// General argument expression (e.g. `sum(px * qty)`); bound and
    /// compiled to bytecode when the operator is built. Takes precedence
    /// over `field`.
    pub expr: Option<Expr>,
    /// Output column name.
    pub out_name: String,
}

/// Resolved argument source for one aggregate column.
enum AggInput {
    /// `count(*)`: no per-row value.
    Star,
    /// Plain field reference.
    Field(usize),
    /// Computed argument, compiled at operator build time.
    Computed(CompiledExpr),
}

/// Execution strategy (DESIGN.md D5). There is one: per-pane partial
/// aggregation, merged at close. The type remains only because
/// [`cql::compile`](crate::cql::compile) and
/// [`cql::compile_query`](crate::cql::compile_query) take it, and the
/// end-to-end benchmark calls them with it; it goes when that argument
/// does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggMode {
    /// Per-pane partial aggregation, merged at close.
    Incremental,
}

/// A mergeable accumulator.
#[derive(Debug, Clone)]
enum Acc {
    Count(i64),
    Sum { sum: f64, n: u64 },
    Avg { sum: f64, n: u64 },
    MinMax { best: Option<Value>, is_min: bool },
    Std { n: u64, mean: f64, m2: f64 },
    Edge { best: Option<(TimestampMs, u64, Value)>, is_first: bool },
}

impl Acc {
    fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum { sum: 0.0, n: 0 },
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => Acc::MinMax { best: None, is_min: true },
            AggFunc::Max => Acc::MinMax { best: None, is_min: false },
            AggFunc::StdDev => Acc::Std { n: 0, mean: 0.0, m2: 0.0 },
            AggFunc::First => Acc::Edge { best: None, is_first: true },
            AggFunc::Last => Acc::Edge { best: None, is_first: false },
        }
    }

    /// Fold one row's value in. `v` is `None` for `count(*)`.
    /// `seq` disambiguates equal timestamps for First/Last (arrival order).
    fn update(&mut self, v: Option<&Value>, ts: TimestampMs, seq: u64) -> Result<()> {
        match self {
            Acc::Count(c) => {
                let counts = match v {
                    None => true,            // count(*)
                    Some(val) => !val.is_null(),
                };
                if counts {
                    *c += 1;
                }
            }
            Acc::Sum { sum, n } | Acc::Avg { sum, n } => {
                if let Some(val) = v {
                    if !val.is_null() {
                        let x = val
                            .as_f64()
                            .ok_or_else(|| Error::Type(format!("sum/avg over {val}")))?;
                        *sum += x;
                        *n += 1;
                    }
                }
            }
            Acc::MinMax { best, is_min } => {
                if let Some(val) = v {
                    if !val.is_null() {
                        let better = match best {
                            None => true,
                            Some(b) => {
                                if *is_min {
                                    val < b
                                } else {
                                    val > b
                                }
                            }
                        };
                        if better {
                            *best = Some(val.clone());
                        }
                    }
                }
            }
            Acc::Std { n, mean, m2 } => {
                if let Some(val) = v {
                    if !val.is_null() {
                        let x = val
                            .as_f64()
                            .ok_or_else(|| Error::Type(format!("stddev over {val}")))?;
                        *n += 1;
                        let delta = x - *mean;
                        *mean += delta / *n as f64;
                        *m2 += delta * (x - *mean);
                    }
                }
            }
            Acc::Edge { best, is_first } => {
                if let Some(val) = v {
                    if !val.is_null() {
                        let better = match best {
                            None => true,
                            Some((bts, bseq, _)) => {
                                if *is_first {
                                    (ts, seq) < (*bts, *bseq)
                                } else {
                                    (ts, seq) > (*bts, *bseq)
                                }
                            }
                        };
                        if better {
                            *best = Some((ts, seq, val.clone()));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Merge another partial in (for pane combination).
    fn merge(&mut self, other: &Acc) {
        match (self, other) {
            (Acc::Count(a), Acc::Count(b)) => *a += b,
            (Acc::Sum { sum, n }, Acc::Sum { sum: s2, n: n2 })
            | (Acc::Avg { sum, n }, Acc::Avg { sum: s2, n: n2 }) => {
                *sum += s2;
                *n += n2;
            }
            (Acc::MinMax { best, is_min }, Acc::MinMax { best: b2, .. }) => {
                if let Some(v2) = b2 {
                    let better = match best {
                        None => true,
                        Some(b) => {
                            if *is_min {
                                v2 < b
                            } else {
                                v2 > b
                            }
                        }
                    };
                    if better {
                        *best = Some(v2.clone());
                    }
                }
            }
            (Acc::Std { n, mean, m2 }, Acc::Std { n: n2, mean: mean2, m2: m22 }) => {
                // Chan et al. parallel variance combination.
                if *n2 > 0 {
                    if *n == 0 {
                        *n = *n2;
                        *mean = *mean2;
                        *m2 = *m22;
                    } else {
                        let delta = mean2 - *mean;
                        let tot = *n + *n2;
                        *m2 += m22 + delta * delta * (*n as f64) * (*n2 as f64) / tot as f64;
                        *mean += delta * (*n2 as f64) / tot as f64;
                        *n = tot;
                    }
                }
            }
            (Acc::Edge { best, is_first }, Acc::Edge { best: b2, .. }) => {
                if let Some((ts2, seq2, v2)) = b2 {
                    let better = match best {
                        None => true,
                        Some((bts, bseq, _)) => {
                            if *is_first {
                                (*ts2, *seq2) < (*bts, *bseq)
                            } else {
                                (*ts2, *seq2) > (*bts, *bseq)
                            }
                        }
                    };
                    if better {
                        *best = Some((*ts2, *seq2, v2.clone()));
                    }
                }
            }
            _ => unreachable!("merging mismatched accumulators"),
        }
    }

    fn finalize(&self) -> Value {
        match self {
            Acc::Count(c) => Value::Int(*c),
            Acc::Sum { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(*sum)
                }
            }
            Acc::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(*sum / *n as f64)
                }
            }
            Acc::MinMax { best, .. } => best.clone().unwrap_or(Value::Null),
            Acc::Std { n, m2, .. } => {
                if *n < 2 {
                    Value::Null
                } else {
                    Value::Float((m2 / (*n - 1) as f64).sqrt())
                }
            }
            Acc::Edge { best, .. } => {
                best.as_ref().map(|(_, _, v)| v.clone()).unwrap_or(Value::Null)
            }
        }
    }
}

/// One aggregate column: its function and resolved argument.
type Column = (AggFunc, AggInput);

impl AggInput {
    /// Whether two columns read the same argument. Computed arguments
    /// never compare equal: they can fail, so they are never shared.
    fn same(&self, other: &AggInput) -> bool {
        match (self, other) {
            (AggInput::Star, AggInput::Star) => true,
            (AggInput::Field(a), AggInput::Field(b)) => a == b,
            _ => false,
        }
    }
}

/// Whether folding `func` over `input` cannot fail for an event that
/// matches `schema`: `*`, or a field whose type the function accepts.
fn infallible(func: AggFunc, input: &AggInput, schema: &Schema) -> bool {
    match input {
        AggInput::Star => true,
        AggInput::Field(i) => match func {
            AggFunc::Sum | AggFunc::Avg | AggFunc::StdDev => matches!(
                schema.fields()[*i].dtype,
                DataType::Int | DataType::Float | DataType::Timestamp
            ),
            _ => true,
        },
        AggInput::Computed(_) => false,
    }
}

/// One empty accumulator per column of `cols` (indices into `columns`).
fn fresh_accs(columns: &[Column], cols: &[usize]) -> Vec<Acc> {
    cols.iter().map(|&c| Acc::new(columns[c].0)).collect()
}

/// One empty accumulator per column.
fn fresh_row(columns: &[Column]) -> Vec<Acc> {
    columns.iter().map(|(f, _)| Acc::new(*f)).collect()
}

/// `merged[group]`, created empty on a miss — the only time the key is
/// cloned.
fn cell<'m>(
    merged: &'m mut HashMap<Vec<Value>, Vec<Acc>>,
    group: &[Value],
    columns: &[Column],
    cols: &[usize],
) -> &'m mut Vec<Acc> {
    if !merged.contains_key(group) {
        merged.insert(group.to_vec(), fresh_accs(columns, cols));
    }
    merged.get_mut(group).expect("inserted above")
}

/// What a missing field reads as.
static NULL: Value = Value::Null;

/// One routed row's column inputs, in column order: none for `*`, a
/// plain field read in place from the record, a computed argument from
/// what [`load`] evaluated.
struct Inputs<'r> {
    columns: &'r [Column],
    rec: &'r Record,
    computed: &'r [Value],
}

impl Inputs<'_> {
    fn iter(&self) -> impl Iterator<Item = Option<&Value>> {
        let mut computed = self.computed.iter();
        self.columns.iter().map(move |(_, arg)| match arg {
            AggInput::Star => None,
            AggInput::Field(i) => Some(self.rec.get(*i).unwrap_or(&NULL)),
            AggInput::Computed(_) => computed.next(),
        })
    }
}

/// Fold one row's inputs into a cell's accumulators.
fn fold(accs: &mut [Acc], inputs: &Inputs, ts: TimestampMs, seq: u64) -> Result<()> {
    for (a, v) in accs.iter_mut().zip(inputs.iter()) {
        a.update(v, ts, seq)?;
    }
    Ok(())
}

/// Evaluate `rec`'s computed column arguments — every one before any
/// accumulator sees the row, so an evaluation error leaves the window
/// state untouched — and, for more than one group field, its group key
/// into the reused buffers. `*` and plain fields cannot fail and are read
/// in place ([`Inputs`], [`group_of`]).
fn load(
    rec: &Record,
    group_fields: &[usize],
    columns: &[Column],
    key: &mut Vec<Value>,
    computed: &mut Vec<Value>,
) -> Result<()> {
    if let [_, _, ..] = group_fields {
        key.clear();
        key.extend(group_fields.iter().map(|i| rec.get(*i).cloned().unwrap_or(Value::Null)));
    }
    computed.clear();
    for (_, arg) in columns {
        if let AggInput::Computed(c) = arg {
            computed.push(c.eval(rec)?);
        }
    }
    Ok(())
}

/// `rec`'s group key: read in place for at most one group field, else
/// the `key` buffer [`load`] filled.
fn group_of<'a>(rec: &'a Record, group_fields: &[usize], key: &'a [Value]) -> &'a [Value] {
    match group_fields {
        [] => &[],
        [i] => std::slice::from_ref(rec.get(*i).unwrap_or(&NULL)),
        _ => key,
    }
}

/// Drop the entries keyed below `boundary`, oldest first: a look at the
/// oldest key when nothing has expired.
fn prune_below<V>(map: &mut BTreeMap<i64, V>, boundary: i64) {
    while let Some(oldest) = map.first_entry() {
        if *oldest.key() >= boundary {
            break;
        }
        oldest.remove();
    }
}

/// Assemble one output row.
fn window_row(group: &[Value], start: TimestampMs, end: TimestampMs, accs: &[Acc]) -> Record {
    let mut values: Vec<Value> = group.to_vec();
    values.push(Value::Timestamp(start));
    values.push(Value::Timestamp(end));
    for a in accs {
        values.push(a.finalize());
    }
    Record::new(values)
}

/// One output delta with output id `seq`.
fn delta(seq: u64, record: Record, end: TimestampMs, schema: &Arc<Schema>, retraction: bool) -> Event {
    let mut e = Event::new(EventId(seq), "window", end, record, Arc::clone(schema));
    e.retraction = retraction;
    e
}

/// Per pane start and group, the partial accumulators of every column.
struct PaneStore {
    pane_ms: i64,
    group_fields: Vec<usize>,
    columns: Vec<Column>,
    cells: BTreeMap<i64, HashMap<Vec<Value>, Vec<Acc>>>,
    /// The routed event's group key (more than one group field) and
    /// computed arguments, reused across events so a fold into an
    /// existing cell allocates nothing.
    key: Vec<Value>,
    computed: Vec<Value>,
    /// Arrival number of the routed event (First/Last tie-break).
    seq: u64,
}

impl PaneStore {
    /// Fold the routed event into pane `ps`. Returns whether that opened
    /// the pane.
    fn fold(&mut self, event: &Event, ps: i64) -> Result<bool> {
        load(&event.payload, &self.group_fields, &self.columns, &mut self.key, &mut self.computed)?;
        let inputs = Inputs {
            columns: &self.columns,
            rec: &event.payload,
            computed: &self.computed,
        };
        let group = group_of(&event.payload, &self.group_fields, &self.key);
        let (opened, groups) = match self.cells.entry(ps) {
            btree_map::Entry::Occupied(pane) => (false, pane.into_mut()),
            btree_map::Entry::Vacant(pane) => (true, pane.insert(HashMap::new())),
        };
        match groups.get_mut(group) {
            Some(accs) => fold(accs, &inputs, event.timestamp, self.seq)?,
            None => {
                let accs = groups.entry(group.to_vec()).or_insert(fresh_row(&self.columns));
                fold(accs, &inputs, event.timestamp, self.seq)?
            }
        }
        Ok(opened)
    }

    /// The oldest retained pane starting at or after `lower`.
    fn first_pane_from(&self, lower: i64) -> Option<i64> {
        self.cells.range(lower..).next().map(|(ps, _)| *ps)
    }

    /// Every group's accumulators over columns `cols` for the panes
    /// starting in `[lo, hi)`.
    fn window_groups(&self, lo: i64, hi: i64, cols: &[usize]) -> HashMap<Vec<Value>, Vec<Acc>> {
        let mut merged: HashMap<Vec<Value>, Vec<Acc>> = HashMap::new();
        for (_, groups) in self.cells.range(lo..hi) {
            for (g, accs) in groups {
                let entry = cell(&mut merged, g, &self.columns, cols);
                for (m, &c) in entry.iter_mut().zip(cols) {
                    m.merge(&accs[c]);
                }
            }
        }
        merged
    }

    /// One group's accumulators over columns `cols` for the panes
    /// starting in `[lo, hi)`.
    fn group_accs(&self, lo: i64, hi: i64, group: &[Value], cols: &[usize]) -> Vec<Acc> {
        let mut accs = fresh_accs(&self.columns, cols);
        for (_, groups) in self.cells.range(lo..hi) {
            if let Some(part) = groups.get(group) {
                for (m, &c) in accs.iter_mut().zip(cols) {
                    m.merge(&part[c]);
                }
            }
        }
        accs
    }

    fn prune_below(&mut self, boundary: i64) {
        prune_below(&mut self.cells, boundary);
    }

    fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    fn state_size(&self) -> usize {
        self.cells.values().map(|g| g.len()).sum()
    }
}

/// One tumbling or sliding aggregate's own state over a [`PaneTable`]:
/// its window shape, consistency level, emission frontier, emitted rows
/// and counters. The panes are the table's; this aggregate reads them
/// only at or above its `floor`, which is where its own copy of them
/// would have been pruned.
pub(crate) struct TimeWindows {
    width: i64,
    slide: i64,
    consistency: ConsistencyLevel,
    /// The table column behind each of this aggregate's columns.
    cols: Vec<usize>,
    out_schema: Arc<Schema>,
    /// Windows starting before this are already emitted.
    next_window_start: i64,
    started: bool,
    /// Speculative: last emitted row per (window start, group), kept
    /// until the window is final so a reopen knows what to retract.
    emitted: BTreeMap<i64, HashMap<Vec<Value>, Record>>,
    /// Highest admitted event time (speculative emission frontier).
    max_event_ts: i64,
    /// Highest watermark seen (speculative finality horizon).
    final_wm: i64,
    /// Panes below this are past: their events are dropped as late, no
    /// window still read covers them, and the table may prune them.
    floor: i64,
    emit_seq: u64,
    stats: OpStats,
    /// Whether it admitted the event being routed.
    admitted: bool,
    /// Deltas of the last table step, for the caller to take.
    pub(crate) rows: Vec<Event>,
    /// Error of the last fold, for the caller to take.
    pub(crate) failed: Option<Error>,
    /// Every watermark step: the watermark, what was due, and whether
    /// the step emitted a row or moved the floor past a pane.
    #[cfg(test)]
    pub(crate) steps: Vec<(i64, i64, bool)>,
}

impl TimeWindows {
    fn new(width: i64, slide: i64, cols: Vec<usize>, out_schema: Arc<Schema>) -> TimeWindows {
        TimeWindows {
            width,
            slide,
            consistency: ConsistencyLevel::default(),
            cols,
            out_schema,
            next_window_start: i64::MIN,
            started: false,
            emitted: BTreeMap::new(),
            max_event_ts: i64::MIN,
            final_wm: i64::MIN,
            floor: i64::MIN,
            emit_seq: 0,
            stats: OpStats::default(),
            admitted: false,
            rows: Vec::new(),
            failed: None,
            #[cfg(test)]
            steps: Vec::new(),
        }
    }

    /// The lowest pane this aggregate admits, so that an event at or
    /// above it needs no late check: its emitted boundary (Watermark) or
    /// the first pane with a window past its finality horizon
    /// (Speculative). `i64::MAX` before its first event, whose admission
    /// starts it.
    fn admits_from(&self) -> i64 {
        if !self.started {
            return i64::MAX;
        }
        match self.consistency {
            ConsistencyLevel::Watermark => self.next_window_start,
            ConsistencyLevel::Speculative => self.final_wm.saturating_sub(self.width).saturating_add(1),
        }
    }

    /// The late check for an event in pane `ps`: admitted, or counted
    /// and dropped.
    fn admit(&mut self, ps: i64) -> bool {
        let late = match self.consistency {
            // Emission is gated on the watermark, so the emitted
            // boundary *is* the finality horizon.
            ConsistencyLevel::Watermark => self.started && ps < self.next_window_start,
            // Emission runs ahead of the watermark; only drop when every
            // containing window is final (the latest one ends at
            // ps + width).
            ConsistencyLevel::Speculative => ps.saturating_add(self.width) <= self.final_wm,
        };
        if late {
            self.stats.late_events += 1;
        } else {
            self.started = true;
        }
        !late
    }

    /// After the table folded an admitted event of `group` into pane
    /// `ps`: a Speculative aggregate revises the emitted windows the
    /// event lands in, then emits the windows event time completes.
    fn on_fold(&mut self, store: &PaneStore, group: &[Value], ps: i64, ts: TimestampMs) {
        if self.consistency == ConsistencyLevel::Speculative {
            self.max_event_ts = self.max_event_ts.max(ts.0);
            self.speculate(store, group, ps);
        }
    }

    /// The smallest watermark [`on_watermark`](Self::on_watermark) does
    /// anything at: the end of the first window left to emit that holds
    /// data (where `emit_up_to` emits, and the only place the floor
    /// moves) — and, Speculative, the first multiple of the slide past
    /// `final_wm`. Every reading of `final_wm` compares it with a pane or
    /// window start plus the width, a multiple of the slide, so a
    /// watermark short of that multiple changes nothing the aggregate
    /// admits, emits, remembers or prunes.
    fn watermark_due(&self, store: &PaneStore) -> i64 {
        let first = if self.started {
            store.first_pane_from(self.next_window_start.max(self.floor))
        } else {
            None
        };
        let close = first.map_or(i64::MAX, |ps| {
            let start = self.next_window_start.max(ps.saturating_sub(self.width).saturating_add(self.slide));
            start.saturating_add(self.width)
        });
        match self.consistency {
            ConsistencyLevel::Watermark => close,
            ConsistencyLevel::Speculative => {
                let horizon = self.final_wm.div_euclid(self.slide).saturating_add(1);
                close.min(horizon.saturating_mul(self.slide))
            }
        }
    }

    /// The pane just below the first one the floor keeps.
    #[cfg(test)]
    fn pane_floor(&self) -> i64 {
        self.floor.saturating_sub(1).div_euclid(self.slide)
    }

    /// [`on_watermark`](Self::on_watermark), logging the step under test.
    fn step(&mut self, store: &PaneStore, wm: TimestampMs) {
        #[cfg(test)]
        let before = (self.watermark_due(store), self.rows.len(), self.pane_floor());
        self.on_watermark(store, wm);
        #[cfg(test)]
        {
            let (due, rows, pane) = before;
            let closed = self.rows.len() > rows || self.pane_floor() != pane;
            self.steps.push((wm.0, due, closed));
        }
    }

    /// Close what `wm` completes, then raise the floor to the new prune
    /// boundary.
    fn on_watermark(&mut self, store: &PaneStore, wm: TimestampMs) {
        match self.consistency {
            ConsistencyLevel::Watermark => {
                self.emit_up_to(store, wm.0);
                // A pane's last containing window starts at the pane
                // itself, and has now been emitted.
                self.floor = self.next_window_start;
            }
            ConsistencyLevel::Speculative => {
                self.final_wm = self.final_wm.max(wm.0);
                // Windows complete by event time were already emitted on
                // arrival; the watermark may still be ahead of event time
                // (e.g. an explicit flush), so cover both frontiers.
                self.emit_up_to(store, self.max_event_ts.max(wm.0));
                // Finality: a pane (and its emitted-row memory) can still
                // be revised only while some containing window is open,
                // i.e. while ps + width > final_wm.
                self.floor = self.final_wm.saturating_sub(self.width) + 1;
                prune_below(&mut self.emitted, self.floor);
            }
        }
    }

    /// Emit one delta with a fresh output id.
    fn emit(&mut self, record: Record, end: TimestampMs, retraction: bool) {
        self.emit_seq += 1;
        if retraction {
            self.stats.retractions += 1;
        }
        let e = delta(self.emit_seq, record, end, &self.out_schema, retraction);
        self.rows.push(e);
    }

    /// Emit every not-yet-emitted window with data ending at or before
    /// `frontier`, in start order, advancing `next_window_start`.
    /// Speculative mode records emitted rows of windows not yet final
    /// (for later retraction); Watermark mode does not need to.
    fn emit_up_to(&mut self, store: &PaneStore, frontier: i64) {
        let (width, slide) = (self.width, self.slide);
        // Every window left to emit starts at or after next_window_start:
        // if the first of them is still open, nothing closes (O(1)).
        if !self.started || frontier.saturating_sub(width) < self.next_window_start {
            return;
        }
        let speculative = self.consistency == ConsistencyLevel::Speculative;
        // Window starts are multiples of the slide (as are pane starts and
        // next_window_start, unless it is still i64::MIN). The earliest
        // window at or after `lower` that holds data is the earliest one
        // containing the first pane at or after `lower`, so each step
        // probes the pane map once and never walks empty starts (the
        // end-of-input flush passes a frontier near i64::MAX).
        let mut lower = self.next_window_start;
        while let Some(ps) = store.first_pane_from(lower.max(self.floor)) {
            let s = lower.max(ps - width + slide);
            if s + width > frontier {
                break;
            }
            let start = TimestampMs(s);
            let end = TimestampMs(s + width);
            let mut groups: Vec<(Vec<Value>, Vec<Acc>)> = store
                .window_groups(s.max(self.floor), s + width, &self.cols)
                .into_iter()
                .collect();
            groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            // A Speculative row is remembered for retraction while its
            // window can still be revised.
            let revisable = speculative && s + width > self.final_wm;
            for (g, accs) in groups {
                let record = window_row(&g, start, end, &accs);
                if revisable {
                    self.emitted.entry(s).or_default().insert(g, record.clone());
                }
                self.emit(record, end, false);
            }
            self.next_window_start = self.next_window_start.max(s + slide);
            lower = s + slide;
        }
    }

    /// Speculative mode: after the routed event of `group` was folded
    /// into pane `ps`, revise already-emitted windows it belongs to
    /// (retract stale row, insert corrected row), then emit windows newly
    /// complete by event time.
    fn speculate(&mut self, store: &PaneStore, group: &[Value], ps: i64) {
        let (width, slide) = (self.width, self.slide);
        let mut reopened = false;
        // Windows containing pane ps start in (ps - width, ps]; the ones
        // to revise were emitted (start < next_window_start) and are not
        // final (end > final_wm). Walk them newest first: an in-order
        // event's pane lies past every emitted window, so it walks none.
        let mut s = ps.min(self.next_window_start.saturating_sub(slide));
        while s > ps - width && s + width > self.final_wm {
            reopened = true;
            self.stats.pane_reopens += 1;
            let start = TimestampMs(s);
            let end = TimestampMs(s + width);
            let accs = store.group_accs(s.max(self.floor), s + width, group, &self.cols);
            let record = window_row(group, start, end, &accs);
            let slot = self.emitted.entry(s).or_default();
            match slot.get(group) {
                Some(old) if *old == record => {} // revision was a no-op
                Some(_) => {
                    let old = slot.insert(group.to_vec(), record.clone()).expect("present");
                    self.emit(old, end, true);
                    self.emit(record, end, false);
                }
                None => {
                    // A group this window never emitted: plain insert.
                    slot.insert(group.to_vec(), record.clone());
                    self.emit(record, end, false);
                }
            }
            s -= slide;
        }
        if reopened {
            self.stats.late_admitted += 1;
        }
        // Emit windows the new event-time frontier completes.
        self.emit_up_to(store, self.max_event_ts)
    }
}

/// The panes of tumbling and sliding aggregates over one stream with one
/// pane width and group-by, folded once for all of them (DESIGN.md D5).
///
/// A member ([`TimeWindows`]) keeps its own frontiers, emitted rows and
/// counters, and reads the shared panes only when it closes or revises a
/// window. A pane is pruned once every member is past it. The table
/// caches two values, recomputed only when a member starts, steps,
/// speculates, joins or is dropped: `admits_from`, the lowest pane every
/// member admits, and `due`, the earliest watermark some member has
/// something due at. So an in-order event costs one key load, one pane
/// probe, one cell probe and one fold, plus each Speculative member's
/// eager step; only an event below `admits_from` pays a late check per
/// member, and only a watermark at or past `due` looks at the members.
///
/// Exactness: a member drops only events in panes below its floor (its
/// emitted boundary at Watermark level, its finality horizon at
/// Speculative), reads no pane below it, and every event in a pane at or
/// above it was admitted by it too — so what another member admits there
/// changes nothing it will read. A standalone time-window aggregate
/// ([`WindowAggregateOp`]) is a table of one.
pub(crate) struct PaneTable {
    store: PaneStore,
    pub(crate) members: Vec<TimeWindows>,
    /// Whether other aggregates may join: no argument can fail for an
    /// event that matches the input schema.
    shareable: bool,
    /// Panes at or above this every member admits.
    admits_from: i64,
    /// The earliest watermark some member has something due at.
    due: i64,
    /// The Speculative members: the only ones with work per folded event.
    speculative: Vec<usize>,
}

impl PaneTable {
    /// Route one event: one fold if any member admits it, then the eager
    /// step of each admitting Speculative member — and, for an event
    /// below `admits_from`, every member's late check first. Each
    /// member's deltas land in its `rows`, an error in its `failed`.
    /// Returns whether any member emitted, failed or changed what is
    /// due; when it returns false, every member's `rows` and `failed`
    /// are empty and [`watermark_due`](Self::watermark_due) stands.
    pub(crate) fn on_event(&mut self, event: &Event) -> bool {
        self.store.seq += 1;
        let ps = event.timestamp.window_start(self.store.pane_ms).0;
        let every = ps >= self.admits_from;
        if !every {
            let mut any = false;
            for m in &mut self.members {
                m.admitted = m.admit(ps);
                any |= m.admitted;
            }
            if !any {
                self.refresh();
                return true;
            }
        }
        let opened = match self.store.fold(event, ps) {
            Ok(opened) => opened,
            Err(e) => {
                // Members share a table only when their arguments cannot
                // fail, so only an event that breaks its stream's schema
                // gets here: it is an error for every member that
                // admitted it.
                let message = match &e {
                    Error::Type(m) => m.clone(),
                    other => other.to_string(),
                };
                let mut first = Some(e);
                for m in self.members.iter_mut().filter(|m| every || m.admitted) {
                    m.failed = Some(first.take().unwrap_or_else(|| Error::Type(message.clone())));
                }
                self.refresh();
                return true;
            }
        };
        // A new pane may hold the first window some member has to close.
        let mut stepped = !every || opened;
        let group = group_of(&event.payload, &self.store.group_fields, &self.store.key);
        for &j in &self.speculative {
            let m = &mut self.members[j];
            if every || m.admitted {
                m.on_fold(&self.store, group, ps, event.timestamp);
                // A member that emitted nothing moved no frontier.
                stepped |= !m.rows.is_empty();
            }
        }
        if stepped {
            self.refresh();
        }
        stepped
    }

    /// Hand `wm` to each member `j` for which `take(j, its watermark_due)`
    /// holds, then prune the panes every member is past.
    pub(crate) fn on_watermark(&mut self, wm: TimestampMs, take: impl Fn(usize, i64) -> bool) {
        let mut stepped = false;
        for (j, m) in self.members.iter_mut().enumerate() {
            if take(j, m.watermark_due(&self.store)) {
                stepped = true;
                m.step(&self.store, wm);
            }
        }
        if stepped {
            let floor = self.members.iter().map(|m| m.floor).min().unwrap_or(i64::MAX);
            self.store.prune_below(floor);
            self.refresh();
        }
    }

    /// The earliest watermark some member has something due at.
    pub(crate) fn watermark_due(&self) -> i64 {
        self.due
    }

    /// Recompute the cached admission bound, due watermark and
    /// Speculative members from the members.
    fn refresh(&mut self) {
        self.admits_from = self.members.iter().map(TimeWindows::admits_from).max().unwrap_or(i64::MAX);
        self.due = self.members.iter().map(|m| m.watermark_due(&self.store)).min().unwrap_or(i64::MAX);
        self.speculative.clear();
        let speculative = |(_, m): &(usize, &TimeWindows)| m.consistency == ConsistencyLevel::Speculative;
        self.speculative.extend(self.members.iter().enumerate().filter(speculative).map(|(j, _)| j));
    }

    /// Move `other`'s aggregates in as members if they read the same
    /// panes: both tables shareable, same pane width and group-by, and
    /// this one holding no pane yet — so a newcomer never sees an event
    /// it would not have seen alone. Returns whether they moved.
    pub(crate) fn join(&mut self, other: &mut PaneTable) -> bool {
        let fits = self.shareable
            && other.shareable
            && self.store.pane_ms == other.store.pane_ms
            && self.store.group_fields == other.store.group_fields
            && self.store.is_empty();
        if !fits {
            return false;
        }
        let columns = std::mem::take(&mut other.store.columns);
        let at: Vec<usize> = columns.into_iter().map(|col| self.column(col)).collect();
        for mut m in other.members.drain(..) {
            for c in &mut m.cols {
                *c = at[*c];
            }
            self.members.push(m);
        }
        self.refresh();
        true
    }

    /// Drop member `j`.
    pub(crate) fn remove(&mut self, j: usize) {
        self.members.remove(j);
        self.refresh();
    }

    /// The index of `col` among the table's columns, added if new.
    fn column(&mut self, col: Column) -> usize {
        let columns = &mut self.store.columns;
        match columns.iter().position(|(f, a)| *f == col.0 && a.same(&col.1)) {
            Some(c) => c,
            None => {
                columns.push(col);
                columns.len() - 1
            }
        }
    }

    /// One member's counters.
    pub(crate) fn member_stats(&self, j: usize) -> OpStats {
        self.members[j].stats
    }

    /// Retained items: pane cells (once, however many members read them)
    /// plus each member's emitted-row memory.
    pub(crate) fn state_size(&self) -> usize {
        self.store.state_size()
            + self
                .members
                .iter()
                .map(|m| m.emitted.values().map(HashMap::len).sum::<usize>())
                .sum::<usize>()
    }
}

/// Per-group count/session window state.
struct SessionState {
    accs: Vec<Acc>,
    first_ts: TimestampMs,
    last_ts: TimestampMs,
    /// Events folded in (count windows close at their count).
    n: usize,
}

impl SessionState {
    fn new(columns: &[Column], ts: TimestampMs) -> SessionState {
        SessionState {
            accs: fresh_row(columns),
            first_ts: ts,
            last_ts: ts,
            n: 0,
        }
    }

    /// Fold one row's inputs in. A session starts at its earliest event,
    /// a count window at its first.
    fn add(&mut self, inputs: &Inputs, ts: TimestampMs, seq: u64, session: bool) -> Result<()> {
        fold(&mut self.accs, inputs, ts, seq)?;
        if session {
            self.first_ts = self.first_ts.min(ts);
        }
        self.last_ts = self.last_ts.max(ts);
        self.n += 1;
        Ok(())
    }
}

/// Count and session windows: per open group, one running accumulator
/// row, probed once per event by the row's group key.
#[derive(Default)]
struct KeyedWindows {
    group_fields: Vec<usize>,
    columns: Vec<Column>,
    open: HashMap<Vec<Value>, SessionState>,
    key: Vec<Value>,
    computed: Vec<Value>,
    seq: u64,
    emit_seq: u64,
}

impl KeyedWindows {
    fn emit(&mut self, schema: &Arc<Schema>, group: &[Value], st: &SessionState, end: TimestampMs, out: &mut Vec<Event>) {
        self.emit_seq += 1;
        let record = window_row(group, st.first_ts, end, &st.accs);
        out.push(delta(self.emit_seq, record, end, schema, false));
    }

    /// Fold the loaded event into its group's open window, opening one on
    /// a miss — the only time the key is cloned (a window opens even if
    /// the fold fails). Returns the group's event count.
    fn add(&mut self, rec: &Record, ts: TimestampMs, session: bool) -> Result<usize> {
        let seq = self.seq;
        let inputs = Inputs {
            columns: &self.columns,
            rec,
            computed: &self.computed,
        };
        let group = group_of(rec, &self.group_fields, &self.key);
        match self.open.get_mut(group) {
            Some(st) => st.add(&inputs, ts, seq, session).map(|()| st.n),
            None => {
                let mut st = SessionState::new(&self.columns, ts);
                let added = st.add(&inputs, ts, seq, session);
                self.open.insert(group.to_vec(), st);
                added.map(|()| 1)
            }
        }
    }

    /// Close the group of the loaded row `rec`: emit its row, ending
    /// `gap` after its last event if given, else at it.
    fn close(&mut self, rec: &Record, schema: &Arc<Schema>, gap: Option<i64>, out: &mut Vec<Event>) {
        let group = group_of(rec, &self.group_fields, &self.key);
        let (group, st) = self.open.remove_entry(group).expect("group is open");
        let end = gap.map_or(st.last_ts, |gap| st.last_ts.plus(gap));
        self.emit(schema, &group, &st, end, out);
    }

    fn on_event(&mut self, window: WindowSpec, schema: &Arc<Schema>, event: &Event, out: &mut Vec<Event>) -> Result<()> {
        self.seq += 1;
        let rec = &event.payload;
        load(rec, &self.group_fields, &self.columns, &mut self.key, &mut self.computed)?;
        let ts = event.timestamp;
        match window {
            WindowSpec::CountTumbling { count } => {
                if self.add(rec, ts, false)? >= count {
                    self.close(rec, schema, None, out);
                }
            }
            WindowSpec::Session { gap_ms } => {
                // Close the running session first if the gap has lapsed.
                let group = group_of(rec, &self.group_fields, &self.key);
                let lapsed = self.open.get(group).is_some_and(|st| ts.since(st.last_ts) > gap_ms);
                if lapsed {
                    self.close(rec, schema, Some(gap_ms), out);
                }
                self.add(rec, ts, true)?;
            }
            WindowSpec::Tumbling { .. } | WindowSpec::Sliding { .. } => unreachable!("time windows use panes"),
        }
        Ok(())
    }

    /// Session windows: close every session the watermark has outrun.
    fn close_sessions(&mut self, gap_ms: i64, schema: &Arc<Schema>, wm: TimestampMs, out: &mut Vec<Event>) {
        let mut expired: Vec<Vec<Value>> = self
            .open
            .iter()
            .filter(|(_, st)| wm.since(st.last_ts) > gap_ms)
            .map(|(g, _)| g.clone())
            .collect();
        expired.sort();
        for g in expired {
            let st = self.open.remove(&g).expect("state exists");
            self.emit(schema, &g, &st, st.last_ts.plus(gap_ms), out);
        }
    }
}

/// What a [`WindowAggregateOp`] runs on.
enum Body {
    /// Tumbling and sliding windows: a pane table with this aggregate as
    /// its one member.
    Time(PaneTable),
    /// Count and session windows.
    Keyed(KeyedWindows),
}

/// The windowed aggregation operator.
pub struct WindowAggregateOp {
    window: WindowSpec,
    consistency: ConsistencyLevel,
    out_schema: Arc<Schema>,
    body: Body,
    /// Late (dropped) events — observability.
    pub late_events: u64,
    /// Late events admitted into already-emitted windows (speculative).
    pub late_admitted: u64,
    /// Already-emitted windows re-opened by late events (speculative).
    pub pane_reopens: u64,
    /// Retraction rows emitted (speculative).
    pub retractions: u64,
    label: String,
}

impl WindowAggregateOp {
    /// Build the operator against an input schema.
    pub fn new(
        input: &Schema,
        window: WindowSpec,
        group_by: &[&str],
        aggs: Vec<AggSpec>,
    ) -> Result<WindowAggregateOp> {
        window
            .validate()
            .map_err(Error::Invalid)?;
        let mut group_fields = Vec::with_capacity(group_by.len());
        let mut out_fields = Vec::new();
        for g in group_by {
            let i = input
                .index_of(g)
                .ok_or_else(|| Error::Schema(format!("unknown group field '{g}'")))?;
            group_fields.push(i);
            out_fields.push(input.fields()[i].clone());
        }
        out_fields.push(FieldDef::required("window_start", DataType::Timestamp));
        out_fields.push(FieldDef::required("window_end", DataType::Timestamp));
        let mut columns: Vec<Column> = Vec::with_capacity(aggs.len());
        for spec in aggs {
            let (arg, ft) = match (&spec.expr, &spec.field) {
                (Some(e), _) => {
                    // Computed argument: bind (type-checks against the
                    // input schema) and compile once, here.
                    let ft = typecheck::infer(e, input)?;
                    let bound = e.bind(input)?;
                    (AggInput::Computed(CompiledExpr::compile(&bound)), ft)
                }
                (None, Some(f)) => {
                    let i = input
                        .index_of(f)
                        .ok_or_else(|| Error::Schema(format!("unknown agg field '{f}'")))?;
                    (AggInput::Field(i), Some(input.fields()[i].dtype))
                }
                (None, None) => {
                    if spec.func != AggFunc::Count {
                        return Err(Error::Invalid(format!(
                            "{:?} requires an argument",
                            spec.func
                        )));
                    }
                    (AggInput::Star, None)
                }
            };
            out_fields.push(FieldDef::nullable(
                spec.out_name.clone(),
                spec.func.output_type(ft),
            ));
            columns.push((spec.func, arg));
        }
        let out_schema = Schema::new(out_fields)?;
        let body = match window {
            WindowSpec::Tumbling { width_ms } | WindowSpec::Sliding { width_ms, .. } => {
                let slide = window.pane_ms().expect("time window has panes");
                let shareable = columns.iter().all(|(f, a)| infallible(*f, a, input));
                let mut table = PaneTable {
                    store: PaneStore {
                        pane_ms: slide,
                        group_fields,
                        columns: Vec::new(),
                        cells: BTreeMap::new(),
                        key: Vec::new(),
                        computed: Vec::new(),
                        seq: 0,
                    },
                    members: Vec::new(),
                    shareable,
                    admits_from: i64::MAX,
                    due: i64::MAX,
                    speculative: Vec::new(),
                };
                let cols = columns.into_iter().map(|col| table.column(col)).collect();
                table.members.push(TimeWindows::new(width_ms, slide, cols, Arc::clone(&out_schema)));
                table.refresh();
                Body::Time(table)
            }
            WindowSpec::CountTumbling { .. } | WindowSpec::Session { .. } => {
                Body::Keyed(KeyedWindows {
                    group_fields,
                    columns,
                    ..KeyedWindows::default()
                })
            }
        };
        Ok(WindowAggregateOp {
            window,
            consistency: ConsistencyLevel::default(),
            out_schema,
            body,
            late_events: 0,
            late_admitted: 0,
            pane_reopens: 0,
            retractions: 0,
            label: "window_aggregate".to_string(),
        })
    }

    /// Set the consistency level (DESIGN.md D12). Defaults to
    /// [`ConsistencyLevel::Watermark`].
    pub fn with_consistency(mut self, level: ConsistencyLevel) -> WindowAggregateOp {
        self.consistency = level;
        if let Body::Time(table) = &mut self.body {
            table.members[0].consistency = level;
            table.refresh();
        }
        self
    }

    /// The configured consistency level.
    pub fn consistency(&self) -> ConsistencyLevel {
        self.consistency
    }

    /// The pane table, if other queries' aggregates may share it (see
    /// [`PaneTable::join`]); the operator is left without state and must
    /// not be used again.
    pub(crate) fn take_shareable_table(&mut self) -> Option<PaneTable> {
        match &self.body {
            Body::Time(table) if table.shareable => {}
            _ => return None,
        }
        match std::mem::replace(&mut self.body, Body::Keyed(KeyedWindows::default())) {
            Body::Time(table) => Some(table),
            Body::Keyed(_) => unreachable!("matched above"),
        }
    }
}

impl WindowAggregateOp {
    /// Move the table's one member's last deltas to `out`, mirror its
    /// counters, and hand back its error.
    fn take_step(&mut self, out: &mut Vec<Event>) -> Result<()> {
        let Body::Time(table) = &mut self.body else {
            return Ok(());
        };
        let member = &mut table.members[0];
        out.append(&mut member.rows);
        let stats = member.stats;
        self.late_events = stats.late_events;
        self.late_admitted = stats.late_admitted;
        self.pane_reopens = stats.pane_reopens;
        self.retractions = stats.retractions;
        member.failed.take().map_or(Ok(()), Err)
    }
}

impl Operator for WindowAggregateOp {
    fn on_event(&mut self, event: &Event, out: &mut Vec<Event>) -> Result<()> {
        match &mut self.body {
            Body::Time(table) => {
                table.on_event(event);
                self.take_step(out)
            }
            Body::Keyed(keyed) => keyed.on_event(self.window, &self.out_schema, event, out),
        }
    }

    fn on_watermark(&mut self, wm: TimestampMs, out: &mut Vec<Event>) -> Result<()> {
        match &mut self.body {
            Body::Time(table) => {
                table.on_watermark(wm, |_, _| true);
                self.take_step(out)
            }
            Body::Keyed(keyed) => {
                if let WindowSpec::Session { gap_ms } = self.window {
                    keyed.close_sessions(gap_ms, &self.out_schema, wm, out);
                }
                Ok(()) // count windows are time-independent
            }
        }
    }

    fn watermark_due(&self) -> TimestampMs {
        TimestampMs(match &self.body {
            Body::Time(table) => table.watermark_due(),
            Body::Keyed(_) => match self.window {
                WindowSpec::CountTumbling { .. } => i64::MAX,
                _ => i64::MIN, // sessions: every watermark may close one
            },
        })
    }

    fn output_schema(&self) -> Arc<Schema> {
        Arc::clone(&self.out_schema)
    }

    fn name(&self) -> &str {
        &self.label
    }

    fn state_size(&self) -> usize {
        match &self.body {
            Body::Time(table) => table.state_size(),
            Body::Keyed(keyed) => keyed.open.len(),
        }
    }

    fn op_stats(&self) -> OpStats {
        OpStats {
            late_events: self.late_events,
            late_admitted: self.late_admitted,
            pane_reopens: self.pane_reopens,
            retractions: self.retractions,
            overflow_drops: 0,
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Arc<Schema> {
        Schema::of(&[("sym", DataType::Str), ("px", DataType::Float)])
    }

    fn ev(ts: i64, sym: &str, px: f64) -> Event {
        Event::new(
            EventId(ts as u64),
            "ticks",
            TimestampMs(ts),
            Record::from_iter([Value::from(sym), Value::Float(px)]),
            schema(),
        )
    }

    fn agg(name: &str, func: AggFunc, field: Option<&str>) -> AggSpec {
        AggSpec {
            func,
            field: field.map(String::from),
            expr: None,
            out_name: name.to_string(),
        }
    }

    fn run(window: WindowSpec, events: &[Event], wm: i64) -> Vec<Record> {
        let mut op = WindowAggregateOp::new(
            &schema(),
            window,
            &["sym"],
            vec![
                agg("n", AggFunc::Count, None),
                agg("total", AggFunc::Sum, Some("px")),
                agg("mean", AggFunc::Avg, Some("px")),
                agg("lo", AggFunc::Min, Some("px")),
                agg("hi", AggFunc::Max, Some("px")),
                agg("sd", AggFunc::StdDev, Some("px")),
                agg("fst", AggFunc::First, Some("px")),
                agg("lst", AggFunc::Last, Some("px")),
            ],
        )
        .unwrap();
        let mut out = Vec::new();
        for e in events {
            op.on_event(e, &mut out).unwrap();
        }
        op.on_watermark(TimestampMs(wm), &mut out).unwrap();
        out.into_iter().map(|e| e.payload).collect()
    }

    #[test]
    fn tumbling_aggregates_every_function() {
        let events = vec![
            ev(100, "A", 10.0),
            ev(200, "A", 20.0),
            ev(300, "B", 5.0),
            ev(1_100, "A", 100.0),
        ];
        let w = WindowSpec::Tumbling { width_ms: 1000 };
        let inc = run(w, &events, 2_000);
        assert_eq!(inc.len(), 3); // (A,w0), (B,w0), (A,w1000)
        // First row: A in window [0,1000): n=2 sum=30 mean=15 lo=10 hi=20
        let a0 = &inc[0];
        assert_eq!(a0.get(0), Some(&Value::from("A")));
        assert_eq!(a0.get(1), Some(&Value::Timestamp(TimestampMs(0))));
        assert_eq!(a0.get(2), Some(&Value::Timestamp(TimestampMs(1000))));
        assert_eq!(a0.get(3), Some(&Value::Int(2)));
        assert_eq!(a0.get(4), Some(&Value::Float(30.0)));
        assert_eq!(a0.get(5), Some(&Value::Float(15.0)));
        assert_eq!(a0.get(6), Some(&Value::Float(10.0)));
        assert_eq!(a0.get(7), Some(&Value::Float(20.0)));
        // sample stddev of {10,20} = sqrt(50) ≈ 7.0710678
        match a0.get(8) {
            Some(Value::Float(sd)) => assert!((sd - 50f64.sqrt()).abs() < 1e-9),
            other => panic!("{other:?}"),
        }
        assert_eq!(a0.get(9), Some(&Value::Float(10.0))); // first
        assert_eq!(a0.get(10), Some(&Value::Float(20.0))); // last
    }

    #[test]
    fn sliding_windows_overlap() {
        let events = vec![ev(150, "A", 1.0), ev(250, "A", 2.0)];
        let w = WindowSpec::Sliding {
            width_ms: 200,
            slide_ms: 100,
        };
        let inc = run(w, &events, 1_000);
        // Windows with data: [0,200):{150} [100,300):{150,250} [200,400):{250}
        assert_eq!(inc.len(), 3);
        assert_eq!(inc[0].get(3), Some(&Value::Int(1)));
        assert_eq!(inc[1].get(3), Some(&Value::Int(2)));
        assert_eq!(inc[2].get(3), Some(&Value::Int(1)));
    }

    #[test]
    fn watermark_only_closes_complete_windows() {
        let events = vec![ev(100, "A", 1.0), ev(1_100, "A", 2.0)];
        let w = WindowSpec::Tumbling { width_ms: 1000 };
        let out = run(w, &events, 1_000);
        assert_eq!(out.len(), 1); // only [0,1000) closed
        let out = run(w, &events, 1_999);
        assert_eq!(out.len(), 1); // [1000,2000) not yet complete
        let out = run(w, &events, 2_000);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn late_events_are_dropped_and_counted() {
        let mut op = WindowAggregateOp::new(
            &schema(),
            WindowSpec::Tumbling { width_ms: 1000 },
            &[],
            vec![agg("n", AggFunc::Count, None)],
        )
        .unwrap();
        let mut out = Vec::new();
        op.on_event(&ev(100, "A", 1.0), &mut out).unwrap();
        op.on_watermark(TimestampMs(1_000), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        op.on_event(&ev(900, "A", 1.0), &mut out).unwrap(); // late
        assert_eq!(op.late_events, 1);
        op.on_watermark(TimestampMs(2_000), &mut out).unwrap();
        assert_eq!(out.len(), 1); // nothing new emitted
    }

    #[test]
    fn count_windows_close_on_nth_event() {
        let mut op = WindowAggregateOp::new(
            &schema(),
            WindowSpec::CountTumbling { count: 2 },
            &["sym"],
            vec![agg("total", AggFunc::Sum, Some("px"))],
        )
        .unwrap();
        let mut out = Vec::new();
        op.on_event(&ev(1, "A", 1.0), &mut out).unwrap();
        op.on_event(&ev(2, "B", 10.0), &mut out).unwrap();
        assert!(out.is_empty());
        op.on_event(&ev(3, "A", 2.0), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload.get(3), Some(&Value::Float(3.0)));
        op.on_event(&ev(4, "B", 20.0), &mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].payload.get(3), Some(&Value::Float(30.0)));
    }

    #[test]
    fn two_group_fields_key_every_window_kind() {
        let events = [ev(1, "A", 1.0), ev(2, "A", 2.0), ev(3, "B", 1.0), ev(4, "A", 1.0), ev(5, "B", 1.0)];
        let count = |window: WindowSpec| -> Vec<String> {
            let mut op =
                WindowAggregateOp::new(&schema(), window, &["sym", "px"], vec![agg("n", AggFunc::Count, None)]).unwrap();
            let mut out = Vec::new();
            for e in &events {
                op.on_event(e, &mut out).unwrap();
            }
            op.on_watermark(TimestampMs(10_000), &mut out).unwrap();
            let mut rows: Vec<String> = out
                .iter()
                .map(|e| format!("{} {} {}", e.payload.values()[0], e.payload.values()[1], e.payload.values()[4]))
                .collect();
            rows.sort();
            rows
        };
        let pairs = ["'A' 1.0 2", "'A' 2.0 1", "'B' 1.0 2"];
        assert_eq!(count(WindowSpec::Tumbling { width_ms: 1_000 }), pairs);
        assert_eq!(count(WindowSpec::Session { gap_ms: 100 }), pairs);
        // Only the pairs that reach the count close.
        assert_eq!(count(WindowSpec::CountTumbling { count: 2 }), ["'A' 1.0 2", "'B' 1.0 2"]);
    }

    #[test]
    fn a_count_window_counts_each_open_group_once() {
        let mut op = WindowAggregateOp::new(
            &schema(),
            WindowSpec::CountTumbling { count: 3 },
            &["sym"],
            vec![agg("n", AggFunc::Count, None)],
        )
        .unwrap();
        let mut out = Vec::new();
        for (k, sym) in ["A", "B", "C", "D"].into_iter().enumerate() {
            op.on_event(&ev(k as i64, sym, 1.0), &mut out).unwrap();
            assert_eq!(op.state_size(), k + 1);
        }
        // A second event leaves a group open; a third closes it.
        op.on_event(&ev(10, "A", 1.0), &mut out).unwrap();
        assert_eq!(op.state_size(), 4);
        op.on_event(&ev(11, "A", 1.0), &mut out).unwrap();
        assert_eq!((out.len(), op.state_size()), (1, 3));
    }

    #[test]
    fn session_windows_close_on_gap() {
        let mut op = WindowAggregateOp::new(
            &schema(),
            WindowSpec::Session { gap_ms: 100 },
            &["sym"],
            vec![agg("n", AggFunc::Count, None)],
        )
        .unwrap();
        let mut out = Vec::new();
        op.on_event(&ev(0, "A", 1.0), &mut out).unwrap();
        op.on_event(&ev(50, "A", 1.0), &mut out).unwrap();
        op.on_event(&ev(120, "A", 1.0), &mut out).unwrap(); // within gap of 50
        assert!(out.is_empty());
        op.on_event(&ev(500, "A", 1.0), &mut out).unwrap(); // gap lapsed
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload.get(3), Some(&Value::Int(3)));
        // Watermark closes the trailing session.
        op.on_watermark(TimestampMs(1_000), &mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].payload.get(3), Some(&Value::Int(1)));
    }

    #[test]
    fn empty_group_by_aggregates_globally() {
        let mut op = WindowAggregateOp::new(
            &schema(),
            WindowSpec::Tumbling { width_ms: 1000 },
            &[],
            vec![agg("n", AggFunc::Count, None)],
        )
        .unwrap();
        let mut out = Vec::new();
        op.on_event(&ev(1, "A", 1.0), &mut out).unwrap();
        op.on_event(&ev(2, "B", 1.0), &mut out).unwrap();
        op.on_watermark(TimestampMs(1_000), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload.get(2), Some(&Value::Int(2)));
    }

    /// Speculative op used by the retraction tests: global count + sum.
    fn spec_op(window: WindowSpec) -> WindowAggregateOp {
        WindowAggregateOp::new(
            &schema(),
            window,
            &["sym"],
            vec![
                agg("n", AggFunc::Count, None),
                agg("total", AggFunc::Sum, Some("px")),
            ],
        )
        .unwrap()
        .with_consistency(ConsistencyLevel::Speculative)
    }

    #[test]
    fn speculative_emits_on_event_time_and_retracts_on_late_data() {
        let mut op = spec_op(WindowSpec::Tumbling { width_ms: 1000 });
        let mut out = Vec::new();
        op.on_event(&ev(100, "A", 10.0), &mut out).unwrap();
        assert!(out.is_empty(), "window not complete yet");
        // Event time passes the window end → speculative emission.
        op.on_event(&ev(1_100, "A", 2.0), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert!(!out[0].is_retraction());
        assert_eq!(out[0].payload.get(3), Some(&Value::Int(1)));
        // Late event inside the emitted (non-final) window: the op
        // retracts the stale row and emits the corrected one.
        op.on_event(&ev(900, "A", 5.0), &mut out).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out[1].is_retraction());
        assert_eq!(out[1].payload, out[0].payload); // cancels the insert
        assert!(!out[2].is_retraction());
        assert_eq!(out[2].payload.get(3), Some(&Value::Int(2)));
        assert_eq!(out[2].payload.get(4), Some(&Value::Float(15.0)));
        assert_eq!(op.late_admitted, 1);
        assert_eq!(op.pane_reopens, 1);
        assert_eq!(op.retractions, 1);
        assert_eq!(op.late_events, 0);
    }

    #[test]
    fn speculative_admission_is_bounded_by_watermark_not_emission() {
        // Satellite regression: an event older than the emitted boundary
        // but newer than the finality horizon must be admitted; one
        // beyond the horizon must be dropped — with exact accounting.
        let mut op = spec_op(WindowSpec::Tumbling { width_ms: 1000 });
        let mut out = Vec::new();
        op.on_event(&ev(100, "A", 10.0), &mut out).unwrap();
        op.on_event(&ev(1_100, "A", 2.0), &mut out).unwrap(); // emits [0,1000)
        assert_eq!(out.len(), 1);
        // Emitted boundary is 1000, watermark still −∞: pre-boundary
        // events are *admitted* (the old code dropped them).
        op.on_event(&ev(900, "A", 5.0), &mut out).unwrap();
        assert_eq!((op.late_admitted, op.late_events), (1, 0));
        // Finalize [0,1000) and [1000,2000).
        op.on_watermark(TimestampMs(2_000), &mut out).unwrap();
        // Beyond the finality horizon: dropped and counted.
        let before = out.len();
        op.on_event(&ev(500, "A", 1.0), &mut out).unwrap();
        assert_eq!(out.len(), before);
        assert_eq!((op.late_admitted, op.late_events), (1, 1));
        // D9 accounting: inserts == live rows + retractions.
        let inserts = out.iter().filter(|e| !e.is_retraction()).count() as u64;
        let retracts = out.iter().filter(|e| e.is_retraction()).count() as u64;
        assert_eq!(retracts, op.retractions);
        assert_eq!(inserts, 3); // [0,1000) twice (v1, corrected v2) + [1000,2000)
        assert_eq!(inserts - retracts, 2); // two final rows
    }

    #[test]
    fn speculative_event_on_the_watermark_still_revises_its_window() {
        // [0,1000) ends one past the watermark 999, so it is not final:
        // pruning must keep its pane and its emitted row.
        let mut op = spec_op(WindowSpec::Tumbling { width_ms: 1000 });
        let mut out = Vec::new();
        op.on_event(&ev(100, "A", 10.0), &mut out).unwrap();
        op.on_event(&ev(1_200, "A", 2.0), &mut out).unwrap(); // emits [0,1000)
        op.on_watermark(TimestampMs(999), &mut out).unwrap();
        op.on_event(&ev(999, "A", 5.0), &mut out).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out[1].is_retraction());
        assert_eq!(out[2].payload.get(3), Some(&Value::Int(2)));
        assert_eq!(out[2].payload.get(4), Some(&Value::Float(15.0)));
        assert_eq!((op.late_events, op.pane_reopens), (0, 1));
    }

    #[test]
    fn speculative_noop_revision_emits_nothing() {
        // A late event that doesn't change the emitted row (min
        // unaffected) reopens the pane but emits no delta.
        let mut op = WindowAggregateOp::new(
            &schema(),
            WindowSpec::Tumbling { width_ms: 1000 },
            &[],
            vec![agg("lo", AggFunc::Min, Some("px"))],
        )
        .unwrap()
        .with_consistency(ConsistencyLevel::Speculative);
        let mut out = Vec::new();
        op.on_event(&ev(100, "A", 1.0), &mut out).unwrap();
        op.on_event(&ev(1_100, "A", 9.0), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        op.on_event(&ev(900, "A", 7.0), &mut out).unwrap(); // min stays 1.0
        assert_eq!(out.len(), 1);
        assert_eq!(op.pane_reopens, 1);
        assert_eq!(op.retractions, 0);
        assert_eq!(op.late_admitted, 1);
    }

    #[test]
    fn speculative_sliding_revises_every_containing_window() {
        let mut op = spec_op(WindowSpec::Sliding { width_ms: 200, slide_ms: 100 });
        let mut out = Vec::new();
        op.on_event(&ev(150, "A", 1.0), &mut out).unwrap();
        op.on_event(&ev(450, "A", 2.0), &mut out).unwrap();
        // Emitted: [0,200) and [100,300) (contain 150); [200,400) has no data.
        let emitted: Vec<i64> = out
            .iter()
            .map(|e| match e.payload.get(1) {
                Some(Value::Timestamp(t)) => t.0,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(emitted, vec![0, 100]);
        // Late event at 170 lands in both emitted windows → both revised.
        op.on_event(&ev(170, "A", 10.0), &mut out).unwrap();
        assert_eq!(op.pane_reopens, 2);
        assert_eq!(op.retractions, 2);
        assert_eq!(op.late_admitted, 1);
        let retract_starts: Vec<i64> = out
            .iter()
            .filter(|e| e.is_retraction())
            .map(|e| match e.payload.get(1) {
                Some(Value::Timestamp(t)) => t.0,
                other => panic!("{other:?}"),
            })
            .collect();
        // speculate() walks containing windows newest-first.
        assert_eq!(retract_starts, vec![100, 0]);
    }

    #[test]
    fn speculative_late_event_into_unemitted_group_inserts_without_retraction() {
        let mut op = spec_op(WindowSpec::Tumbling { width_ms: 1000 });
        let mut out = Vec::new();
        op.on_event(&ev(100, "A", 1.0), &mut out).unwrap();
        op.on_event(&ev(1_100, "A", 2.0), &mut out).unwrap(); // [0,1000): only A
        assert_eq!(out.len(), 1);
        // Late event for a group the window never emitted: plain insert.
        op.on_event(&ev(800, "B", 3.0), &mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert!(!out[1].is_retraction());
        assert_eq!(out[1].payload.get(0), Some(&Value::from("B")));
        assert_eq!(op.retractions, 0);
        assert_eq!(op.pane_reopens, 1);
    }

    #[test]
    fn watermark_mode_emits_zero_retractions() {
        let events = [
            ev(100, "A", 10.0),
            ev(1_100, "A", 2.0),
            ev(900, "A", 5.0), // late: dropped at Watermark level
        ];
        let w = WindowSpec::Tumbling { width_ms: 1000 };
        let mut op = WindowAggregateOp::new(
            &schema(),
            w,
            &["sym"],
            vec![agg("n", AggFunc::Count, None)],
        )
        .unwrap();
        let mut out = Vec::new();
        op.on_event(&events[0], &mut out).unwrap();
        op.on_watermark(TimestampMs(1_000), &mut out).unwrap();
        for e in &events[1..] {
            op.on_event(e, &mut out).unwrap();
        }
        op.on_watermark(TimestampMs(3_000), &mut out).unwrap();
        assert!(out.iter().all(|e| !e.is_retraction()));
        assert_eq!(op.retractions, 0);
        assert_eq!(op.op_stats().late_events, 1);
    }

    #[test]
    fn bad_specs_rejected() {
        assert!(WindowAggregateOp::new(
            &schema(),
            WindowSpec::Tumbling { width_ms: 0 },
            &[],
            vec![],
        )
        .is_err());
        assert!(WindowAggregateOp::new(
            &schema(),
            WindowSpec::Tumbling { width_ms: 10 },
            &["ghost"],
            vec![],
        )
        .is_err());
        assert!(WindowAggregateOp::new(
            &schema(),
            WindowSpec::Tumbling { width_ms: 10 },
            &[],
            vec![agg("s", AggFunc::Sum, None)], // sum needs a field
        )
        .is_err());
    }
}
