//! The matcher contract shared by the scan baseline and the indexed
//! design, so benchmarks and property tests can compare them head-to-head.

use std::ops::Range;

use evdb_expr::BatchScratch;
use evdb_types::{Record, Result};

use crate::indexed::KeyMemo;
use crate::rule::{Rule, RuleId};

/// Reusable state for [`Matcher::match_batch`]: the expression-VM batch
/// scratch, the indexed matcher's per-record candidate buffers and
/// key-value memo, and the flat buffer the batch's matched ids land in.
/// Hold one per evaluating thread; buffers size themselves to the batch
/// on first use and are reused afterwards (D15).
#[derive(Debug, Default)]
pub struct MatchScratch {
    /// Matched ids, record after record, appended by every
    /// [`Matcher::match_batch`] since the last [`clear_ids`](Self::clear_ids);
    /// record `i`'s are `ids[out[i]]`.
    pub(crate) ids: Vec<RuleId>,
    /// Expression-VM scratch shared by every rule verified batch-wide.
    pub(crate) expr: BatchScratch,
    /// Verdict buffer for one batch-wide rule.
    pub(crate) bools: Vec<Result<bool>>,
    /// Per record of the batch, its candidate slots in verify order.
    pub(crate) slots: Vec<Vec<u32>>,
    /// Unindexed rules' verdicts over the whole batch, rule-major.
    pub(crate) verdicts: Vec<Result<bool>>,
    /// The batch's expression-key values.
    pub(crate) keys: KeyMemo,
}

impl MatchScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> MatchScratch {
        MatchScratch::default()
    }

    /// The ids [`Matcher::match_batch`] matched, record after record: a
    /// record's hits are this slice at the range `out` holds for it.
    pub fn ids(&self) -> &[RuleId] {
        &self.ids
    }

    /// Empty the id buffer, keeping its capacity. `match_batch` appends,
    /// so a caller clears once per unit of work it reads ranges from.
    pub fn clear_ids(&mut self) {
        self.ids.clear();
    }
}

/// A set of rules matchable against records of one schema.
pub trait Matcher: Send + Sync {
    /// Add a rule. Fails if the id is taken or the predicate does not
    /// type-check against the matcher's schema.
    fn add_rule(&mut self, rule: Rule) -> Result<()>;

    /// Remove a rule by id. Fails if absent.
    fn remove_rule(&mut self, id: RuleId) -> Result<()>;

    /// Replace a rule's predicate, atomically from the caller's
    /// perspective: fails if the id is absent or the new predicate does
    /// not type-check, and a failed update leaves the old rule in place.
    fn update_rule(&mut self, rule: Rule) -> Result<()>;

    /// Ids of all rules whose predicate is TRUE for the record,
    /// in ascending id order (deterministic for tests and dedup).
    fn match_record(&self, record: &Record) -> Result<Vec<RuleId>>;

    /// Match a whole batch: `out[i]` is the range of `scratch.ids()`
    /// holding record `i`'s hits, which must equal
    /// `self.match_record(records[i])` — same ids, same first-error
    /// semantics per record. A hit costs no allocation of its own: the
    /// ids are appended to the scratch's one buffer, so the ranges of
    /// several calls stay valid together until the caller runs
    /// [`MatchScratch::clear_ids`]. The default delegates record-at-a-time;
    /// implementations override to amortize verification through the
    /// batch evaluator (D15).
    fn match_batch(
        &self,
        records: &[&Record],
        scratch: &mut MatchScratch,
        out: &mut Vec<Result<Range<usize>>>,
    ) {
        out.clear();
        for record in records {
            out.push(self.match_record(record).map(|ids| {
                let start = scratch.ids.len();
                scratch.ids.extend(ids);
                start..scratch.ids.len()
            }));
        }
    }

    /// Number of rules.
    fn len(&self) -> usize;

    /// True when no rules are registered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
