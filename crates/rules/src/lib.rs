//! # evdb-rules
//!
//! Rules technology (Chandy & Gawlick §2.2.c): predicates stored as data,
//! evaluated against streams of records at scale.
//!
//! Two matchers implement the same [`Matcher`] contract:
//!
//! * [`ScanMatcher`] — the baseline: evaluate every rule on every record.
//!   O(rules) per record; what a naive rules service does.
//! * [`IndexedMatcher`] — the scalable design (DESIGN.md D1): each rule's
//!   predicate is decomposed (via `evdb_expr::analyze`) into per-attribute
//!   equality/range constraints — a LIKE with a literal prefix counts as
//!   a string range, and a computed left side shared by many rules
//!   (`volume % 97 = k`) is an attribute too: an *expression key*,
//!   evaluated at most once per record — and the rule is posted under up
//!   to **two** of them.
//!   Its most selective constraint is the access path (equality ≻ small
//!   IN ≻ two-sided range ≻ one-sided range); an equality access path
//!   selects a *cluster*, inside which the rule's best remaining
//!   equality/range on another field keys an interval index (`interval`
//!   module: sorted blocks with max-high summaries, posting-local
//!   updates). Candidates are verified against the full predicate,
//!   unless the two posted constraints are all of it. Cost
//!   per record is `O(probes + rules it can match on two attributes)`,
//!   not `O(rules)` — the property behind the paper's "large rule sets"
//!   scalability claim (experiment E3) — and updates touch only the
//!   changed rule's postings, covering the "frequently changing rule
//!   sets" claim (experiment E4).
//!
//! On top of the matchers, [`broker`] provides topic-based
//! publish/subscribe with predicate subscriptions and the tutorial's
//! **subscribe-to-publish** pattern (publishers are told when interest in
//! their topic appears, so they can start producing).

pub mod broker;
pub mod indexed;
mod interval;
pub mod matcher;
pub mod rule;
pub mod scan;

pub use broker::{Broker, Publication, SubscriptionInfo};
pub use indexed::IndexedMatcher;
pub use matcher::{MatchScratch, Matcher};
pub use rule::{Rule, RuleId};
pub use scan::ScanMatcher;
