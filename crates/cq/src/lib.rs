//! # evdb-cq
//!
//! Continuous queries and complex event processing — the tutorial's
//! "support for continuous queries provides a comprehensive base for CEP"
//! (§2.2.c.i.3) and its two query-based event definitions (§2.2.a.iii):
//! result-set change events and pattern-occurrence events.
//!
//! Building blocks:
//!
//! * **Operators** ([`op`]): push-based, composable into a [`Pipeline`] —
//!   filter, project/compute, windowed group-by aggregation, stream-stream
//!   window join, stream-table lookup join.
//! * **Windows** ([`window`]): tumbling, sliding, count and session
//!   windows over *event time*, closed by **watermarks** (max event time
//!   minus an allowed-lateness bound). What happens to late events is a
//!   per-query choice (DESIGN.md D12): under `ConsistencyLevel::Watermark`
//!   output is gated on the watermark and anything later is counted and
//!   dropped; under `ConsistencyLevel::Speculative` results are emitted
//!   eagerly on event time and late events re-open already-emitted panes,
//!   issuing retraction/correction delta pairs.
//! * **Aggregation** ([`aggregate`]) over per-pane partial aggregates
//!   that are merged at window close (DESIGN.md D5).
//! * **Patterns** ([`pattern`]): SEQ patterns with per-step predicates,
//!   optional steps, Kleene-plus, negation and a WITHIN bound, compiled to
//!   an NFA with three skip strategies (strict contiguity,
//!   skip-till-next-match, skip-till-any-match). The naive self-join
//!   baseline for experiment E6 lives alongside it.
//! * **CQL** ([`cql`]): a small textual front-end
//!   (`SELECT … FROM s [RANGE 10s SLIDE 2s] WHERE … GROUP BY … HAVING …`)
//!   compiled onto the operator pipeline.
//! * **Runtime** ([`runtime`]): named streams, registered continuous
//!   queries, subscriber callbacks, watermark bookkeeping.
//! * **Delta queries** ([`delta`]): adapters that turn
//!   `evdb_storage::QuerySnapshot` diffs and journal changes into events,
//!   plus the insert/retract delta vocabulary ([`DeltaKind`],
//!   [`ConsistencyLevel`]) and the [`DeltaLog`] compactor that folds a
//!   retraction-bearing output stream down to its net answer.

pub mod aggregate;
pub mod cql;
pub mod delta;
pub mod extra;
pub mod join;
pub mod op;
pub mod pattern;
pub mod runtime;
pub mod window;

pub use aggregate::{AggFunc, AggMode, AggSpec};
pub use cql::compile_query;
pub use delta::{ConsistencyLevel, DeltaKind, DeltaLog};
pub use extra::{DeduplicateOp, TopKOp};
pub use op::{OpStats, Operator, Pipeline};
pub use pattern::{Pattern, PatternMatcher, RevisablePatternMatcher, SkipStrategy, Step};
pub use runtime::StreamRuntime;
pub use window::WindowSpec;
