//! The predicate-indexed matcher (DESIGN.md D1).
//!
//! Every rule is decomposed by [`evdb_expr::analyze`] into indexable
//! constraints, and the matcher posts it under up to **two** of them:
//!
//! 1. **Access path** — the most selective constraint: `Eq` (hash
//!    probe) ≻ small `In` (one hash entry per value) ≻ two-sided `Range`
//!    ≻ one-sided `Range` (a LIKE with a literal prefix counts as the
//!    string range it implies). A range access path is one posting in
//!    the field's [`IntervalIndex`]; an equality access path selects a
//!    **cluster** — everything posted under that field value.
//! 2. **Second constraint** — inside a cluster, the rule's best
//!    remaining `Eq`/`Range` on a *different* field (same ranking) keys a
//!    per-field [`IntervalIndex`] (`Eq` as the interval `[v, v]`); rules
//!    with none sit in the cluster's plain list.
//!
//! So `sym = 'S17' AND price BETWEEN a AND b` is a candidate only for
//! ticks on `S17` whose price is inside `[a, b]`, not for every tick on
//! `S17`. Candidates are still verified against the rule's **full
//! predicate**: the index only has to be a sound superset (for band
//! rules it is exact). A rule with no indexable constraint falls into an
//! always-evaluate set.
//!
//! Matching one record costs `O(probes + candidates)` with candidates ≈
//! rules the record satisfies on two attributes. Postings carry a dense
//! `u32` slot into the rule slab, so verifying a candidate is an array
//! index. Updates touch only the changed rule's postings — one hash
//! entry and one interval block — which is what keeps frequently
//! changing rule sets cheap (experiment E4).
//!
//! **Error visibility.** A record that fails a rule's indexed
//! constraints never evaluates that rule and therefore never surfaces
//! its evaluation errors (the scan baseline would). This holds for the
//! access path and the second constraint alike.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use evdb_expr::{analyze, CompiledExpr, Constraint};
use evdb_obs::{Counter, Registry};
use evdb_types::{Error, Record, Result, Schema, Value};

use crate::interval::{Interval, IntervalIndex};
use crate::matcher::{MatchScratch, Matcher};
use crate::rule::{Rule, RuleId};

/// Where a rule is posted, for removal. Interval postings are found
/// again by `(low bound, slot)`, so only the low value is kept.
#[derive(Debug)]
enum Posting {
    /// In `fields[field].eq[value]` for each of `values`: under
    /// `second = (field, low)` in the cluster's interval index for that
    /// field, or in its plain list.
    Eq {
        field: usize,
        values: Vec<Value>,
        second: Option<(usize, Option<Value>)>,
    },
    /// In `fields[field].ranges`.
    Range {
        field: usize,
        low: Option<Value>,
    },
    Unindexed,
}

#[derive(Debug)]
struct RuleMeta {
    id: RuleId,
    /// The full predicate, compiled to bytecode at registration (D11).
    compiled: CompiledExpr,
    posting: Posting,
}

/// Everything posted under one value of an equality access path.
#[derive(Debug, Default)]
struct Cluster {
    /// Rules with no second constraint.
    plain: Vec<u32>,
    /// Rules keyed by a second constraint, per constrained field (a
    /// handful of fields at most, hence a list).
    by_field: Vec<(usize, IntervalIndex)>,
}

impl Cluster {
    fn is_empty(&self) -> bool {
        self.plain.is_empty() && self.by_field.is_empty()
    }

    fn insert(&mut self, second: Option<(usize, Interval)>, slot: u32) {
        let Some((field, interval)) = second else {
            self.plain.push(slot);
            return;
        };
        let at = match self.by_field.iter().position(|(f, _)| *f == field) {
            Some(at) => at,
            None => {
                self.by_field.push((field, IntervalIndex::default()));
                self.by_field.len() - 1
            }
        };
        self.by_field[at].1.insert(interval, slot);
    }

    fn remove(&mut self, second: &Option<(usize, Option<Value>)>, slot: u32) {
        let removed = match second {
            None => remove_slot(&mut self.plain, slot),
            Some((field, low)) => match self.by_field.iter().position(|(f, _)| f == field) {
                Some(at) => {
                    let removed = self.by_field[at].1.remove(low.as_ref(), slot);
                    if self.by_field[at].1.is_empty() {
                        self.by_field.remove(at);
                    }
                    removed
                }
                None => false,
            },
        };
        debug_assert!(removed, "slot {slot} was posted in this cluster");
    }

    fn probe(&self, record: &Record, slots: &mut Vec<u32>) {
        slots.extend_from_slice(&self.plain);
        for (field, index) in &self.by_field {
            if let Some(v) = record.get(*field).filter(|v| !v.is_null()) {
                index.stab(v, slots);
            }
        }
    }
}

/// Remove `slot` from an order-preserving slot list.
fn remove_slot(slots: &mut Vec<u32>, slot: u32) -> bool {
    match slots.iter().position(|s| *s == slot) {
        Some(at) => {
            slots.remove(at);
            true
        }
        None => false,
    }
}

#[derive(Debug, Default)]
struct FieldIndex {
    /// value → cluster of rules whose access constraint is equality
    /// with it (`IN` posts into one cluster per value).
    eq: HashMap<Value, Cluster>,
    /// Rules whose access constraint is a range on this field.
    ranges: IntervalIndex,
}

/// The scalable matcher.
///
/// # Example
///
/// ```
/// use evdb_rules::{IndexedMatcher, Matcher, Rule};
/// use evdb_types::{DataType, Record, Schema, Value};
///
/// let schema = Schema::of(&[("sym", DataType::Str), ("px", DataType::Float)]);
/// let mut m = IndexedMatcher::new(schema);
/// m.add_rule(Rule::new(1, "ibm-spike",
///     evdb_expr::parse("sym = 'IBM' AND px > 100").unwrap())).unwrap();
/// m.add_rule(Rule::new(2, "any-cheap",
///     evdb_expr::parse("px < 5").unwrap())).unwrap();
///
/// let tick = Record::from_iter([Value::from("IBM"), Value::Float(150.0)]);
/// assert_eq!(m.match_record(&tick).unwrap(), vec![1]);
/// ```
pub struct IndexedMatcher {
    schema: Arc<Schema>,
    fields: Vec<FieldIndex>,
    /// Rule slab; postings refer to rules by slot.
    slab: Vec<Option<RuleMeta>>,
    /// Vacant slab slots, reused before the slab grows.
    free: Vec<u32>,
    by_id: HashMap<RuleId, u32>,
    /// Rules with no indexable constraint, in registration order.
    unindexed: Vec<u32>,
    /// Rule predicates evaluated (index candidates + unindexed rules).
    candidates_obs: Option<Arc<Counter>>,
    /// Rules whose full predicate matched.
    matches_obs: Option<Arc<Counter>>,
}

/// Selectivity rank of a constraint (higher = preferred).
fn rank(c: &Constraint) -> u8 {
    match c {
        Constraint::Eq { .. } => 4,
        Constraint::In { values, .. } if values.len() <= 8 => 3,
        Constraint::Range {
            low: Some(_),
            high: Some(_),
            ..
        } => 2,
        Constraint::Range { .. } => 1,
        Constraint::In { .. } => 1,
    }
}

/// The interval an `Eq` or `Range` constraint describes; `In` has none.
fn interval_of(c: &Constraint) -> Option<Interval> {
    match c {
        Constraint::Eq { value, .. } => Some(Interval::point(value.clone())),
        Constraint::Range { low, high, .. } => Some(Interval {
            low: low.clone(),
            high: high.clone(),
        }),
        Constraint::In { .. } => None,
    }
}

impl IndexedMatcher {
    /// Create a matcher for records of `schema`.
    pub fn new(schema: Arc<Schema>) -> IndexedMatcher {
        let nfields = schema.len();
        IndexedMatcher {
            schema,
            fields: (0..nfields).map(|_| FieldIndex::default()).collect(),
            slab: Vec::new(),
            free: Vec::new(),
            by_id: HashMap::new(),
            unindexed: Vec::new(),
            candidates_obs: None,
            matches_obs: None,
        }
    }

    /// Register candidate/match counters with `registry`
    /// (`evdb_rules_candidates_total` — rule predicates evaluated —
    /// and `evdb_rules_matches_total`).
    pub fn bind_obs(&mut self, registry: &Registry) {
        if registry.is_enabled() {
            self.candidates_obs = Some(registry.counter("evdb_rules_candidates_total"));
            self.matches_obs = Some(registry.counter("evdb_rules_matches_total"));
        }
    }

    /// How many rules have an indexed access path.
    pub fn fully_indexed_count(&self) -> usize {
        self.by_id.len() - self.unindexed.len()
    }

    /// How many rules fall back to always-evaluate.
    pub fn unindexed_count(&self) -> usize {
        self.unindexed.len()
    }

    fn meta(&self, slot: u32) -> &RuleMeta {
        self.slab[slot as usize]
            .as_ref()
            .expect("posted slots are live")
    }

    /// Type-check and compile a rule's predicate; touches no state, so
    /// a failure leaves the matcher as it was.
    fn prepare(&self, rule: &Rule) -> Result<CompiledExpr> {
        let bound = rule.predicate.bind_predicate(&self.schema)?;
        Ok(CompiledExpr::compile(&bound))
    }

    /// Post a prepared rule and store it in the slab.
    fn install(&mut self, rule: &Rule, compiled: CompiledExpr) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            (self.slab.len() - 1) as u32
        });
        let posting = self.post(&analyze(&rule.predicate).constraints, slot);
        self.slab[slot as usize] = Some(RuleMeta {
            id: rule.id,
            compiled,
            posting,
        });
        self.by_id.insert(rule.id, slot);
    }

    /// Post `slot` under its access path and second constraint.
    fn post(&mut self, constraints: &[Constraint], slot: u32) -> Posting {
        // `prepare` bound the predicate, so every constrained field exists.
        let field_of = |c: &Constraint| {
            self.schema
                .index_of(c.field())
                .expect("constraint field exists")
        };
        let Some(access) = constraints.iter().max_by_key(|c| rank(c)) else {
            self.unindexed.push(slot);
            return Posting::Unindexed;
        };
        let field = field_of(access);
        let values = match access {
            Constraint::Eq { value, .. } => std::slice::from_ref(value),
            Constraint::In { values, .. } => values.as_slice(),
            Constraint::Range { low, high, .. } => {
                let interval = Interval {
                    low: low.clone(),
                    high: high.clone(),
                };
                let low = interval.low_value().cloned();
                self.fields[field].ranges.insert(interval, slot);
                return Posting::Range { field, low };
            }
        };
        let second = constraints
            .iter()
            .filter(|c| c.field() != access.field() && !matches!(c, Constraint::In { .. }))
            .max_by_key(|c| rank(c))
            .and_then(|c| Some((field_of(c), interval_of(c)?)));
        for value in values {
            self.fields[field]
                .eq
                .entry(value.clone())
                .or_default()
                .insert(second.clone(), slot);
        }
        Posting::Eq {
            field,
            values: values.to_vec(),
            second: second.map(|(f, interval)| (f, interval.low_value().cloned())),
        }
    }

    /// The one probe routine (D1): append the slot of every rule whose
    /// indexed constraints `record` satisfies. Each rule appears at most
    /// once — it is posted under one field, and a record carries one
    /// value (one cluster, IN values being distinct) per field.
    fn probe(&self, record: &Record, slots: &mut Vec<u32>) {
        for (field, index) in self.fields.iter().enumerate() {
            let Some(v) = record.get(field).filter(|v| !v.is_null()) else {
                continue;
            };
            if let Some(cluster) = index.eq.get(v) {
                cluster.probe(record, slots);
            }
            index.ranges.stab(v, slots);
        }
    }

    /// Match one record: probe, verify the candidates' full predicates,
    /// then take each unindexed rule's verdict from `unindexed_verdict(k,
    /// rule)` (`k` counts along `self.unindexed`). Both [`Matcher`] entry
    /// points run through here, so ids, order and first-error-wins agree
    /// by construction. The counters fire only for records that complete.
    fn match_one(
        &self,
        record: &Record,
        slots: &mut Vec<u32>,
        mut unindexed_verdict: impl FnMut(usize, &RuleMeta) -> Result<bool>,
    ) -> Result<Vec<RuleId>> {
        slots.clear();
        self.probe(record, slots);
        let mut out = Vec::new();
        for &slot in slots.iter() {
            let meta = self.meta(slot);
            if meta.compiled.matches(record)? {
                out.push(meta.id);
            }
        }
        for (k, &slot) in self.unindexed.iter().enumerate() {
            let meta = self.meta(slot);
            if unindexed_verdict(k, meta)? {
                out.push(meta.id);
            }
        }
        out.sort_unstable();
        if let Some(c) = &self.candidates_obs {
            c.add((slots.len() + self.unindexed.len()) as u64);
        }
        if let Some(c) = &self.matches_obs {
            c.add(out.len() as u64);
        }
        Ok(out)
    }
}

impl Matcher for IndexedMatcher {
    fn add_rule(&mut self, rule: Rule) -> Result<()> {
        if self.by_id.contains_key(&rule.id) {
            return Err(Error::AlreadyExists(format!("rule {}", rule.id)));
        }
        let compiled = self.prepare(&rule)?;
        self.install(&rule, compiled);
        Ok(())
    }

    fn remove_rule(&mut self, id: RuleId) -> Result<()> {
        let slot = self
            .by_id
            .remove(&id)
            .ok_or_else(|| Error::NotFound(format!("rule {id}")))?;
        let meta = self.slab[slot as usize]
            .take()
            .expect("registered slots are live");
        self.free.push(slot);
        match meta.posting {
            Posting::Unindexed => {
                let removed = remove_slot(&mut self.unindexed, slot);
                debug_assert!(removed, "rule {id} was in the unindexed list");
            }
            Posting::Range { field, low } => {
                let removed = self.fields[field].ranges.remove(low.as_ref(), slot);
                debug_assert!(removed, "rule {id} was posted under its range");
            }
            Posting::Eq {
                field,
                values,
                second,
            } => {
                for value in values {
                    if let Entry::Occupied(mut cluster) = self.fields[field].eq.entry(value) {
                        cluster.get_mut().remove(&second, slot);
                        if cluster.get().is_empty() {
                            cluster.remove();
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn update_rule(&mut self, rule: Rule) -> Result<()> {
        if !self.by_id.contains_key(&rule.id) {
            return Err(Error::NotFound(format!("rule {}", rule.id)));
        }
        // Prepare before removing: a predicate that does not bind must
        // leave the old rule in place.
        let compiled = self.prepare(&rule)?;
        self.remove_rule(rule.id)?;
        self.install(&rule, compiled);
        Ok(())
    }

    fn match_record(&self, record: &Record) -> Result<Vec<RuleId>> {
        self.match_one(record, &mut Vec::new(), |_, rule| {
            rule.compiled.matches(record)
        })
    }

    /// [`match_record`](Matcher::match_record) per record, except that
    /// the unindexed rules — the one verify group that spans the whole
    /// batch — go through the batch VM first, one pass per rule. Index
    /// candidates are verified record by record: the second constraint
    /// exists so that few records share a candidate, and a rule-major
    /// group of one or two records costs more to build than it saves
    /// (DESIGN.md D1 records the trade-off for wide clusters).
    fn match_batch(
        &self,
        records: &[&Record],
        scratch: &mut MatchScratch,
        out: &mut Vec<Result<Vec<RuleId>>>,
    ) {
        out.clear();
        let MatchScratch {
            expr,
            bools,
            slots,
            verdicts,
        } = scratch;
        // Rule-major verdicts: rule `k` on record `i` at `k * n + i`.
        let n = records.len();
        verdicts.clear();
        for &slot in &self.unindexed {
            self.meta(slot)
                .compiled
                .matches_batch(records, |r| *r, expr, bools);
            verdicts.append(bools);
        }
        out.extend(records.iter().enumerate().map(|(i, record)| {
            self.match_one(record, slots, |k, _| {
                std::mem::replace(&mut verdicts[k * n + i], Ok(false))
            })
        }));
    }

    fn len(&self) -> usize {
        self.by_id.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evdb_expr::parse;
    use evdb_types::DataType;

    fn schema() -> Arc<Schema> {
        Schema::of(&[
            ("sym", DataType::Str),
            ("px", DataType::Float),
            ("qty", DataType::Int),
        ])
    }

    fn rec(sym: &str, px: f64, qty: i64) -> Record {
        Record::from_iter([Value::from(sym), Value::Float(px), Value::Int(qty)])
    }

    #[test]
    fn equality_access_path_with_residual_verification() {
        let mut m = IndexedMatcher::new(schema());
        m.add_rule(Rule::new(1, "", parse("sym = 'IBM' AND px > 100").unwrap()))
            .unwrap();
        assert_eq!(m.match_record(&rec("IBM", 150.0, 1)).unwrap(), vec![1]);
        assert!(m.match_record(&rec("IBM", 50.0, 1)).unwrap().is_empty());
        assert!(m.match_record(&rec("X", 150.0, 1)).unwrap().is_empty());
        assert_eq!(m.fully_indexed_count(), 1);
    }

    #[test]
    fn ranges_one_and_two_sided() {
        let mut m = IndexedMatcher::new(schema());
        m.add_rule(Rule::new(1, "", parse("px > 100").unwrap()))
            .unwrap();
        m.add_rule(Rule::new(2, "", parse("px <= 100").unwrap()))
            .unwrap();
        m.add_rule(Rule::new(3, "", parse("px BETWEEN 50 AND 150").unwrap()))
            .unwrap();
        m.add_rule(Rule::new(4, "", parse("qty >= 10 AND qty < 20").unwrap()))
            .unwrap();

        assert_eq!(m.match_record(&rec("A", 100.0, 10)).unwrap(), vec![2, 3, 4]);
        assert_eq!(m.match_record(&rec("A", 100.5, 20)).unwrap(), vec![1, 3]);
        assert_eq!(m.match_record(&rec("A", 40.0, 5)).unwrap(), vec![2]);
        assert_eq!(m.match_record(&rec("A", 160.0, 19)).unwrap(), vec![1, 4]);
    }

    #[test]
    fn in_lists_and_residuals() {
        let mut m = IndexedMatcher::new(schema());
        m.add_rule(Rule::new(1, "", parse("sym IN ('A', 'B')").unwrap()))
            .unwrap();
        m.add_rule(Rule::new(
            2,
            "",
            parse("sym = 'A' AND (px > 10 OR qty > 10)").unwrap(),
        ))
        .unwrap();
        assert_eq!(m.match_record(&rec("B", 1.0, 1)).unwrap(), vec![1]);
        assert_eq!(m.match_record(&rec("A", 11.0, 1)).unwrap(), vec![1, 2]);
        assert_eq!(m.match_record(&rec("A", 1.0, 1)).unwrap(), vec![1]);
    }

    #[test]
    fn access_path_prefers_equality_over_wide_range() {
        let mut m = IndexedMatcher::new(schema());
        // Equality should be the access path; the wide px range must not
        // make this rule a candidate for every record.
        m.add_rule(Rule::new(1, "", parse("px > 0 AND sym = 'RARE'").unwrap()))
            .unwrap();
        match &m.meta(m.by_id[&1]).posting {
            Posting::Eq { .. } => {}
            other => panic!("expected Eq access path, got {other:?}"),
        }
        assert_eq!(m.match_record(&rec("RARE", 1.0, 1)).unwrap(), vec![1]);
        assert!(m.match_record(&rec("COMMON", 1.0, 1)).unwrap().is_empty());
    }

    #[test]
    fn unindexable_rules_still_match() {
        let mut m = IndexedMatcher::new(schema());
        m.add_rule(Rule::new(1, "", parse("length(sym) = 3").unwrap()))
            .unwrap();
        m.add_rule(Rule::new(2, "", parse("px * 2 > qty").unwrap()))
            .unwrap();
        assert_eq!(m.unindexed_count(), 2);
        assert_eq!(m.match_record(&rec("IBM", 10.0, 5)).unwrap(), vec![1, 2]);
        assert_eq!(
            m.match_record(&rec("IB", 1.0, 50)).unwrap(),
            Vec::<RuleId>::new()
        );
    }

    #[test]
    fn removal_is_complete() {
        let mut m = IndexedMatcher::new(schema());
        m.add_rule(Rule::new(
            1,
            "",
            parse("sym = 'A' AND px > 1 AND qty IN (1,2)").unwrap(),
        ))
        .unwrap();
        m.add_rule(Rule::new(2, "", parse("sym = 'A'").unwrap()))
            .unwrap();
        assert_eq!(m.match_record(&rec("A", 2.0, 1)).unwrap(), vec![1, 2]);
        m.remove_rule(1).unwrap();
        assert_eq!(m.match_record(&rec("A", 2.0, 1)).unwrap(), vec![2]);
        assert!(m.remove_rule(1).is_err());
        m.update_rule(Rule::new(2, "", parse("sym = 'B'").unwrap()))
            .unwrap();
        assert!(m.match_record(&rec("A", 2.0, 1)).unwrap().is_empty());
        assert_eq!(m.match_record(&rec("B", 2.0, 1)).unwrap(), vec![2]);
    }

    #[test]
    fn failed_update_leaves_the_old_rule_matching() {
        let mut m = IndexedMatcher::new(schema());
        m.add_rule(Rule::new(1, "", parse("sym = 'A' AND px > 1").unwrap()))
            .unwrap();
        assert!(m
            .update_rule(Rule::new(1, "", parse("ghost = 1").unwrap()))
            .is_err());
        assert!(m
            .update_rule(Rule::new(2, "", parse("px > 1").unwrap()))
            .is_err());
        assert_eq!(m.len(), 1);
        assert_eq!(m.match_record(&rec("A", 2.0, 1)).unwrap(), vec![1]);
    }

    /// Candidates counted by a matcher bound to a fresh registry.
    fn counted(m: &mut IndexedMatcher) -> (Arc<Counter>, Arc<Counter>) {
        let registry = Registry::new();
        m.bind_obs(&registry);
        (
            registry.counter("evdb_rules_candidates_total"),
            registry.counter("evdb_rules_matches_total"),
        )
    }

    #[test]
    fn second_constraint_narrows_the_cluster() {
        let mut m = IndexedMatcher::new(schema());
        let (candidates, _) = counted(&mut m);
        let preds = [
            "sym = 'A' AND px BETWEEN 10 AND 20",
            "sym = 'A' AND px > 15",
            "sym = 'A' AND qty = 7",
            "sym IN ('A', 'B') AND px < 5",
            "sym = 'A'",
            "sym LIKE 'A%' AND qty % 2 = 0",
            "sym LIKE '_%'",
        ];
        for (i, p) in preds.iter().enumerate() {
            m.add_rule(Rule::new(i as u64, "", parse(p).unwrap()))
                .unwrap();
        }
        assert_eq!(m.unindexed_count(), 1);
        // (record, matches, predicates the index lets through)
        let cases = [
            (rec("A", 12.0, 7), vec![0, 2, 4, 6], 5),
            (rec("A", 18.0, 8), vec![0, 1, 4, 5, 6], 5),
            (rec("B", 1.0, 7), vec![3, 6], 2),
            (rec("AB", 1.0, 2), vec![5, 6], 2),
            (rec("C", 50.0, 7), vec![6], 1),
        ];
        for (r, want, evaluated) in cases {
            let before = candidates.get();
            assert_eq!(m.match_record(&r).unwrap(), want, "{r}");
            assert_eq!(candidates.get() - before, evaluated, "{r}");
        }
        // Removal empties every structure the rules were posted in.
        for i in 0..preds.len() {
            m.remove_rule(i as u64).unwrap();
        }
        assert!(m.is_empty());
        assert!(m
            .fields
            .iter()
            .all(|f| f.eq.is_empty() && f.ranges.is_empty()));
        assert!(m.unindexed.is_empty());
        assert_eq!(m.free.len(), m.slab.len());
    }

    #[test]
    fn band_rules_are_candidates_only_where_they_match() {
        // Band-only rule set: the index is exact, so every predicate it
        // lets through matches.
        let mut m = IndexedMatcher::new(schema());
        let (candidates, matches) = counted(&mut m);
        let mut state = 7u64;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        for id in 0..800 {
            let lo = next(9_000) as f64 / 100.0;
            let hi = lo + (20 + next(500)) as f64 / 100.0;
            let text = format!("sym = 'S{}' AND px BETWEEN {lo:.2} AND {hi:.2}", next(8));
            m.add_rule(Rule::new(id, "", parse(&text).unwrap()))
                .unwrap();
        }
        let ticks: Vec<Record> = (0..1_000)
            .map(|_| rec(&format!("S{}", next(8)), next(10_000) as f64 / 100.0, 1))
            .collect();
        for t in &ticks {
            m.match_record(t).unwrap();
        }
        assert!(matches.get() > 1_000, "{} matches", matches.get());
        assert_eq!(candidates.get(), matches.get());
        // The batch entry point evaluates exactly the same predicates.
        let per_record = candidates.get();
        let refs: Vec<&Record> = ticks.iter().collect();
        let (mut scratch, mut out) = (MatchScratch::new(), Vec::new());
        m.match_batch(&refs, &mut scratch, &mut out);
        assert_eq!(candidates.get(), 2 * per_record);
        assert_eq!(matches.get(), 2 * per_record);
    }

    #[test]
    fn batch_equals_record_including_first_error() {
        // `qty * i64::MAX` overflows — an evaluation error — for qty >= 2.
        let mut m = IndexedMatcher::new(schema());
        let preds = [
            "sym = 'A' AND px > 10",
            "sym = 'A' AND qty * 9223372036854775807 > 1", // errors only on sym A
            "qty * 9223372036854775807 > px",              // unindexed, errors
            "px * 2 > qty",                                // unindexed
            "sym LIKE 'B%' AND qty * 9223372036854775807 > 1",
            "qty BETWEEN 1 AND 3",
        ];
        for (i, p) in preds.iter().enumerate() {
            m.add_rule(Rule::new(i as u64, "", parse(p).unwrap()))
                .unwrap();
        }
        assert_eq!(m.unindexed_count(), 2);
        let records = [
            rec("A", 11.0, 1),
            rec("A", 11.0, 2),
            rec("B", 1.0, 5),
            rec("C", 1.0, 2),
            rec("C", 9.0, 0),
            rec("B2", 0.5, 1),
        ];
        let refs: Vec<&Record> = records.iter().collect();
        let (mut scratch, mut out) = (MatchScratch::new(), Vec::new());
        m.match_batch(&refs, &mut scratch, &mut out);
        assert_eq!(out.len(), records.len());
        for (r, batched) in records.iter().zip(&out) {
            let single = m.match_record(r);
            match (&single, batched) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{r}"),
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{r}"),
                _ => panic!("{r}: {single:?} vs {batched:?}"),
            }
        }
        let ok: Vec<bool> = out.iter().map(|r| r.is_ok()).collect();
        assert_eq!(ok, [true, false, false, false, true, true]);
        assert_eq!(out[0].as_ref().unwrap(), &vec![0, 1, 2, 3, 5]);
    }

    #[test]
    fn null_fields_never_match_indexed_constraints() {
        let schema = evdb_types::Schema::new(vec![
            evdb_types::FieldDef::nullable("sym", DataType::Str),
            evdb_types::FieldDef::required("px", DataType::Float),
        ])
        .unwrap();
        let mut m = IndexedMatcher::new(schema);
        m.add_rule(Rule::new(1, "", parse("sym = 'A'").unwrap()))
            .unwrap();
        let r = Record::from_iter([Value::Null, Value::Float(1.0)]);
        assert!(m.match_record(&r).unwrap().is_empty());
    }

    #[test]
    fn agrees_with_scan_on_random_rules() {
        use crate::scan::ScanMatcher;
        let schema = schema();
        let mut idx = IndexedMatcher::new(Arc::clone(&schema));
        let mut scan = ScanMatcher::new(Arc::clone(&schema));
        let preds = [
            "px > 50",
            "px BETWEEN 10 AND 60",
            "sym = 'S3'",
            "sym IN ('S1', 'S5') AND px <= 30",
            "qty = 7",
            "qty >= 3 AND qty <= 9 AND sym = 'S2'",
            "length(sym) = 2",
            "px < 20 OR qty > 90",
        ];
        for (i, p) in preds.iter().enumerate() {
            let r = Rule::new(i as u64, "", parse(p).unwrap());
            idx.add_rule(r.clone()).unwrap();
            scan.add_rule(r).unwrap();
        }
        let mut state = 42u64;
        for _ in 0..500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let sym = format!("S{}", state % 8);
            let px = ((state >> 8) % 1000) as f64 / 10.0;
            let qty = ((state >> 16) % 100) as i64;
            let r = rec(&sym, px, qty);
            assert_eq!(
                idx.match_record(&r).unwrap(),
                scan.match_record(&r).unwrap(),
                "disagreement on {r}"
            );
        }
    }
}
