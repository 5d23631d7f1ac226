//! The matcher contract shared by the scan baseline and the indexed
//! design, so benchmarks and property tests can compare them head-to-head.

use evdb_expr::BatchScratch;
use evdb_types::{Record, Result};

use crate::indexed::KeyMemo;
use crate::rule::{Rule, RuleId};

/// Reusable state for [`Matcher::match_batch`]: the expression-VM batch
/// scratch plus the indexed matcher's per-record candidate buffers and
/// key-value memo. Hold one per evaluating thread; buffers size
/// themselves to the batch on first use and are reused afterwards (D15).
#[derive(Debug, Default)]
pub struct MatchScratch {
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

    /// Match a whole batch: `out[i]` must equal
    /// `self.match_record(records[i])` — same ids, same first-error
    /// semantics per record. The default delegates record-at-a-time;
    /// implementations override to amortize verification through the
    /// batch evaluator (D15).
    fn match_batch(
        &self,
        records: &[&Record],
        _scratch: &mut MatchScratch,
        out: &mut Vec<Result<Vec<RuleId>>>,
    ) {
        out.clear();
        out.extend(records.iter().map(|r| self.match_record(r)));
    }

    /// Number of rules.
    fn len(&self) -> usize;

    /// True when no rules are registered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
