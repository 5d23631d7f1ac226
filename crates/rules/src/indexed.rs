//! The predicate-indexed matcher (DESIGN.md D1).
//!
//! Every rule is decomposed by [`evdb_expr::analyze`] into indexable
//! constraints, and the matcher posts it under up to **two** of them. A
//! constraint is on a **dimension**: a schema field, or an **expression
//! key** — the computed left side of a conjunct such as `volume % 97 =
//! 5`, interned by its canonical text so that every rule written over
//! the same left side shares one compiled expression, evaluated at most
//! once per record. A key has the same index structures a field has and
//! lives as long as a rule is posted under it.
//!
//! 1. **Access path** — the most selective constraint: `Eq` (hash
//!    probe) ≻ small `In` (one hash entry per value) ≻ two-sided `Range`
//!    ≻ one-sided `Range` (a LIKE with a literal prefix counts as the
//!    string range it implies); at equal rank a field beats a key,
//!    because reading it costs no evaluation. A range access path is one
//!    posting in the dimension's [`IntervalIndex`]; an equality access
//!    path selects a **cluster** — everything posted under that value.
//! 2. **Second constraint** — inside a cluster, the rule's best
//!    remaining `Eq`/`Range` on a *different* dimension (same ranking)
//!    keys a per-dimension [`IntervalIndex`] (`Eq` as the interval `[v,
//!    v]`); rules with none sit in the cluster's plain list.
//!
//! So `sym = 'S17' AND price BETWEEN a AND b` is a candidate only for
//! ticks on `S17` whose price is inside `[a, b]`, and `sym LIKE 'S3%' AND
//! volume % 97 = 5` only for ticks whose `volume % 97` is 5 and whose
//! symbol sorts in `['S3', 'S4')`. Candidates are verified against the
//! rule's **full predicate** — the index only has to be a sound superset
//! — except **exact** rules: when the two posted constraints *are* the
//! whole predicate (the band shape), admission is the verdict and the
//! predicate is not run. A rule with no indexable constraint falls into
//! an always-evaluate set.
//!
//! Matching one record costs `O(probes + key evaluations + candidates)`:
//! one evaluation per live access-path key (bounded by the distinct left
//! sides in the rule set, not by the rules; `match_batch` runs each as
//! one batch-VM pass over the batch), a key reached only as a second
//! constraint being evaluated only for records that land in such a
//! cluster; candidates ≈ rules the record satisfies on two dimensions.
//! Postings carry a dense `u32` slot into the rule slab, so verifying a
//! candidate is an array index. Updates touch only the changed rule's
//! postings — one hash entry and one interval block — which is what
//! keeps frequently changing rule sets cheap (experiment E4).
//!
//! **Error visibility.** A record that fails a rule's indexed
//! constraints never evaluates that rule and therefore never surfaces
//! its evaluation errors (the scan baseline would). This holds for the
//! access path and the second constraint alike. A key whose value is
//! NULL matches nothing, like a NULL field. A key that *errors* on a
//! record excludes no rule on that ground: every rule posted under it
//! is narrowed by its other posted constraint only and verified by its
//! full predicate, which decides whether the error surfaces.

use std::cell::{OnceCell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use evdb_expr::{analyze, BatchScratch, CompiledExpr, ConjunctiveForm, Constraint, KeyConstraint};
use evdb_obs::{Counter, Registry};
use evdb_types::{Error, Record, Result, Schema, Value};

use crate::interval::{Interval, IntervalIndex};
use crate::matcher::{MatchScratch, Matcher};
use crate::rule::{Rule, RuleId};

/// Where a rule is posted, for removal. Dimensions number the schema's
/// fields first, then the key slots. Interval postings are found again
/// by `(low bound, slot)`, so only the low value is kept.
#[derive(Debug)]
enum Posting {
    /// In `dims[dim].eq[value]` for each of `values`: under `second =
    /// (dim, low)` in the cluster's interval index for that dimension,
    /// or in its plain list.
    Eq {
        dim: usize,
        values: Vec<Value>,
        second: Option<(usize, Option<Value>)>,
    },
    /// In `dims[dim].ranges`.
    Range {
        dim: usize,
        low: Option<Value>,
    },
    Unindexed,
}

impl Posting {
    /// How many of the rule's constraints the posting enforces.
    fn enforced(&self) -> usize {
        match self {
            Posting::Eq { second, .. } => 1 + usize::from(second.is_some()),
            Posting::Range { .. } => 1,
            Posting::Unindexed => 0,
        }
    }
}

#[derive(Debug)]
struct RuleMeta {
    id: RuleId,
    /// The full predicate, compiled to bytecode at registration (D11).
    compiled: CompiledExpr,
    posting: Posting,
    /// The posted constraints are the whole predicate: a record the
    /// index admits matches, without running `compiled`.
    exact: bool,
}

/// An interned left-hand expression: compiled once, shared by every
/// rule posted under it, dropped with the last of them.
#[derive(Debug)]
struct Key {
    /// Canonical text of the expression — its identity.
    text: String,
    compiled: CompiledExpr,
    /// Rules posted under this key (access path or second constraint).
    rules: u32,
}

/// What one record presents on one dimension.
enum Probed<'a> {
    Value(&'a Value),
    /// NULL or absent: inside no constraint.
    Null,
    /// The key's expression failed on this record.
    Failed,
}

/// Key values for the records of one call, so a key shared by an access
/// path and several clusters' second constraints is evaluated once per
/// record: for the whole batch by the batch VM, into a column, or on
/// first use for one record by the scalar VM, into a cell.
#[derive(Debug, Default)]
pub(crate) struct KeyMemo {
    /// Per key slot, its values over the batch as the batch VM returned
    /// them; empty for a key that was not evaluated batch-wide.
    columns: Vec<Vec<Result<Value>>>,
    /// Values evaluated on demand, unset until first use: key slot `k`
    /// on record `i` at `i * columns.len() + k`.
    cells: Vec<OnceCell<Result<Value>>>,
    /// Which cells are set, so that a reset costs what was used.
    set: RefCell<Vec<usize>>,
}

impl KeyMemo {
    /// Nothing evaluated, for `records` records of `keys` key slots.
    fn reset(&mut self, keys: usize, records: usize) {
        self.columns.iter_mut().for_each(Vec::clear);
        self.columns.resize_with(keys, Vec::new);
        for at in self.set.get_mut().drain(..) {
            self.cells[at].take();
        }
        self.cells.resize_with(keys * records, OnceCell::new);
    }

    /// Evaluate `key`, slot `k`, over the whole batch.
    fn fill(&mut self, k: usize, key: &Key, records: &[&Record], expr: &mut BatchScratch) {
        key.compiled
            .eval_batch(records, |r| *r, expr, &mut self.columns[k]);
    }

    /// The value of `key`, slot `k`, on `record`, the batch's record
    /// `i` — evaluated now if it has not been.
    fn get(&self, k: usize, key: &Key, record: &Record, i: usize) -> &Result<Value> {
        self.columns[k].get(i).unwrap_or_else(|| {
            let at = i * self.columns.len() + k;
            self.cells[at].get_or_init(|| {
                self.set.borrow_mut().push(at);
                key.compiled.eval(record)
            })
        })
    }

    /// Key evaluations since the last reset.
    fn evals(&self) -> usize {
        self.columns.iter().map(Vec::len).sum::<usize>() + self.set.borrow().len()
    }
}

/// Everything posted under one value of an equality access path.
#[derive(Debug, Default)]
struct Cluster {
    /// Rules with no second constraint.
    plain: Vec<u32>,
    /// Rules keyed by a second constraint, per constrained dimension (a
    /// handful at most, hence a list).
    by_dim: Vec<(usize, IntervalIndex)>,
}

impl Cluster {
    fn is_empty(&self) -> bool {
        self.plain.is_empty() && self.by_dim.is_empty()
    }

    fn insert(&mut self, second: Option<(usize, Interval)>, slot: u32) {
        let Some((dim, interval)) = second else {
            self.plain.push(slot);
            return;
        };
        let at = match self.by_dim.iter().position(|(d, _)| *d == dim) {
            Some(at) => at,
            None => {
                self.by_dim.push((dim, IntervalIndex::default()));
                self.by_dim.len() - 1
            }
        };
        self.by_dim[at].1.insert(interval, slot);
    }

    fn remove(&mut self, second: &Option<(usize, Option<Value>)>, slot: u32) {
        let removed = match second {
            None => remove_slot(&mut self.plain, slot),
            Some((dim, low)) => match self.by_dim.iter().position(|(d, _)| d == dim) {
                Some(at) => {
                    let removed = self.by_dim[at].1.remove(low.as_ref(), slot);
                    if self.by_dim[at].1.is_empty() {
                        self.by_dim.remove(at);
                    }
                    removed
                }
                None => false,
            },
        };
        debug_assert!(removed, "slot {slot} was posted in this cluster");
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

/// The postings of one dimension.
#[derive(Debug, Default)]
struct DimIndex {
    /// value → cluster of rules whose access constraint is equality
    /// with it (`IN` posts into one cluster per value).
    eq: HashMap<Value, Cluster>,
    /// Rules whose access constraint is a range on this dimension.
    ranges: IntervalIndex,
}

impl DimIndex {
    fn is_empty(&self) -> bool {
        self.eq.is_empty() && self.ranges.is_empty()
    }
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
    /// One index per dimension: the schema's fields, then the key slots.
    dims: Vec<DimIndex>,
    /// Key slab; key `k` is dimension `schema.len() + k`.
    keys: Vec<Option<Key>>,
    /// Vacant key slots, reused before the slab grows.
    free_keys: Vec<u32>,
    key_by_text: HashMap<String, u32>,
    /// Rule slab; postings refer to rules by slot.
    slab: Vec<Option<RuleMeta>>,
    /// Vacant slab slots, reused before the slab grows.
    free: Vec<u32>,
    by_id: HashMap<RuleId, u32>,
    /// Rules with no indexable constraint, in registration order.
    unindexed: Vec<u32>,
    /// Rules the index admitted (candidates + unindexed rules).
    candidates_obs: Option<Arc<Counter>>,
    /// Rules whose full predicate matched.
    matches_obs: Option<Arc<Counter>>,
    /// Key expressions evaluated.
    key_evals_obs: Option<Arc<Counter>>,
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

/// One postable constraint of a rule and, when it is on a computed
/// value, the key it is on.
type Atom<'a> = (&'a Constraint, Option<&'a KeyConstraint>);

/// Every postable constraint of `form`, fields first.
fn atoms(form: &ConjunctiveForm) -> impl Iterator<Item = Atom<'_>> {
    let fields = form.constraints.iter().map(|c| (c, None));
    let keys = form.keys.iter().map(|k| (&k.constraint, Some(k)));
    fields.chain(keys)
}

/// Preference among a rule's atoms: by [`rank`]; at equal rank a field
/// before a key, which costs an evaluation to read.
fn preference(atom: &Atom<'_>) -> (u8, bool) {
    (rank(atom.0), atom.1.is_none())
}

impl IndexedMatcher {
    /// Create a matcher for records of `schema`.
    pub fn new(schema: Arc<Schema>) -> IndexedMatcher {
        let nfields = schema.len();
        IndexedMatcher {
            schema,
            dims: (0..nfields).map(|_| DimIndex::default()).collect(),
            keys: Vec::new(),
            free_keys: Vec::new(),
            key_by_text: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            by_id: HashMap::new(),
            unindexed: Vec::new(),
            candidates_obs: None,
            matches_obs: None,
            key_evals_obs: None,
        }
    }

    /// Register the matcher's counters with `registry`:
    /// `evdb_rules_candidates_total` (rules the index admitted, plus the
    /// always-evaluate set), `evdb_rules_matches_total` and
    /// `evdb_rules_key_evals_total` (key expressions evaluated).
    pub fn bind_obs(&mut self, registry: &Registry) {
        if registry.is_enabled() {
            self.candidates_obs = Some(registry.counter("evdb_rules_candidates_total"));
            self.matches_obs = Some(registry.counter("evdb_rules_matches_total"));
            self.key_evals_obs = Some(registry.counter("evdb_rules_key_evals_total"));
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
        let form = analyze(&rule.predicate);
        let posting = self.post(&form, slot);
        // Key conjuncts and LIKEs stay in the residual, so an exact rule
        // is posted under field constraints only.
        let exact = form.residual.is_none() && posting.enforced() == form.constraints.len();
        self.slab[slot as usize] = Some(RuleMeta {
            id: rule.id,
            compiled,
            posting,
            exact,
        });
        self.by_id.insert(rule.id, slot);
    }

    /// The dimension `atom` constrains, taking a reference on its key.
    fn dim_of(&mut self, atom: Atom<'_>) -> usize {
        // `prepare` bound the predicate, so every field exists and every
        // sub-expression binds.
        let Some(key) = atom.1 else {
            return self
                .schema
                .index_of(atom.0.field())
                .expect("constraint field exists");
        };
        let k = match self.key_by_text.get(key.constraint.field()) {
            Some(&k) => k,
            None => {
                let bound = key.expr.bind(&self.schema).expect("key binds");
                let k = self.free_keys.pop().unwrap_or_else(|| {
                    self.keys.push(None);
                    self.dims.push(DimIndex::default());
                    (self.keys.len() - 1) as u32
                });
                let text = key.constraint.field().to_string();
                self.key_by_text.insert(text.clone(), k);
                self.keys[k as usize] = Some(Key {
                    text,
                    compiled: CompiledExpr::compile(&bound),
                    rules: 0,
                });
                k
            }
        };
        self.keys[k as usize].as_mut().expect("interned").rules += 1;
        self.schema.len() + k as usize
    }

    /// Drop one rule's reference on `dim`'s key, and the key with its
    /// last rule. No-op for a field.
    fn release(&mut self, dim: usize) {
        let Some(k) = dim.checked_sub(self.schema.len()) else {
            return;
        };
        let key = self.keys[k].as_mut().expect("posted keys are live");
        key.rules -= 1;
        if key.rules == 0 {
            self.key_by_text.remove(&key.text);
            self.keys[k] = None;
            self.free_keys.push(k as u32);
            debug_assert!(self.dims[dim].is_empty(), "key {k} still has postings");
        }
    }

    /// Post `slot` under its access path and second constraint.
    fn post(&mut self, form: &ConjunctiveForm, slot: u32) -> Posting {
        let Some(access) = atoms(form).max_by_key(preference) else {
            self.unindexed.push(slot);
            return Posting::Unindexed;
        };
        let dim = self.dim_of(access);
        let values = match access.0 {
            Constraint::Eq { value, .. } => std::slice::from_ref(value),
            Constraint::In { values, .. } => values.as_slice(),
            Constraint::Range { low, high, .. } => {
                let interval = Interval {
                    low: low.clone(),
                    high: high.clone(),
                };
                let low = interval.low_value().cloned();
                self.dims[dim].ranges.insert(interval, slot);
                return Posting::Range { dim, low };
            }
        };
        let same_dim =
            |a: &Atom<'_>| a.1.is_some() == access.1.is_some() && a.0.field() == access.0.field();
        let second = atoms(form)
            .filter(|a| !same_dim(a) && !matches!(a.0, Constraint::In { .. }))
            .max_by_key(preference)
            .and_then(|a| Some((a, interval_of(a.0)?)))
            .map(|(a, interval)| (self.dim_of(a), interval));
        for value in values {
            self.dims[dim]
                .eq
                .entry(value.clone())
                .or_default()
                .insert(second.clone(), slot);
        }
        Posting::Eq {
            dim,
            values: values.to_vec(),
            second: second.map(|(d, interval)| (d, interval.low_value().cloned())),
        }
    }

    /// What `record` — record `i` of `memo`'s batch — presents on `dim`:
    /// the field, or the key's value, evaluated on first use.
    fn value<'a>(&self, dim: usize, record: &'a Record, i: usize, memo: &'a KeyMemo) -> Probed<'a> {
        let value = match dim.checked_sub(self.schema.len()) {
            None => record.get(dim),
            Some(k) => {
                let key = self.keys[k].as_ref().expect("posted keys are live");
                match memo.get(k, key, record, i) {
                    Ok(v) => Some(v),
                    Err(_) => return Probed::Failed,
                }
            }
        };
        match value {
            Some(v) if !v.is_null() => Probed::Value(v),
            _ => Probed::Null,
        }
    }

    /// The one probe routine (D1): append to `slots[i]` the slot of
    /// every rule whose indexed constraints `records[i]` satisfies. Each
    /// rule appears at most once per record — it is posted under one
    /// dimension, and a record carries one value (one cluster, IN values
    /// being distinct) per dimension. Dimension by dimension, so that a
    /// batch walks one index, and one key's column, at a time.
    fn probe(&self, records: &[&Record], memo: &KeyMemo, slots: &mut [Vec<u32>]) {
        for (dim, index) in self.dims.iter().enumerate() {
            // Also what makes key evaluation lazy: a key no rule uses as
            // its access path is not evaluated here.
            if index.is_empty() {
                continue;
            }
            for (i, (record, slots)) in records.iter().zip(slots.iter_mut()).enumerate() {
                match self.value(dim, record, i, memo) {
                    Probed::Value(v) => {
                        if let Some(cluster) = index.eq.get(v) {
                            self.probe_cluster(cluster, record, i, memo, slots);
                        }
                        index.ranges.stab(v, slots);
                    }
                    Probed::Null => {}
                    Probed::Failed => {
                        // No value to select by: every cluster, every
                        // range. Slot order keeps the result independent
                        // of the hash map's; an IN rule sits in several
                        // clusters.
                        let mut all = Vec::new();
                        for cluster in index.eq.values() {
                            self.probe_cluster(cluster, record, i, memo, &mut all);
                        }
                        index.ranges.all(&mut all);
                        all.sort_unstable();
                        all.dedup();
                        slots.append(&mut all);
                    }
                }
            }
        }
    }

    /// Append `cluster`'s plain rules and, per second dimension, the
    /// rules whose interval contains the record's value there.
    fn probe_cluster(
        &self,
        cluster: &Cluster,
        record: &Record,
        i: usize,
        memo: &KeyMemo,
        slots: &mut Vec<u32>,
    ) {
        slots.extend_from_slice(&cluster.plain);
        for (dim, index) in &cluster.by_dim {
            match self.value(*dim, record, i, memo) {
                Probed::Value(v) => index.stab(v, slots),
                Probed::Null => {}
                Probed::Failed => index.all(slots),
            }
        }
    }

    /// The one verify routine: run the full predicate of each candidate
    /// in `slots` (an exact candidate is a match as admitted), then take
    /// each unindexed rule's verdict from `unindexed_verdict(k, rule)`
    /// (`k` counts along `self.unindexed`), appending the matched ids to
    /// `ids` in ascending order. Both [`Matcher`] entry points probe and
    /// verify through here, so ids, order and first-error-wins agree by
    /// construction. On an error `ids` is cut back to what it held.
    /// Returns the rules admitted, for the candidate counter, which (like
    /// the match counter) counts only records that complete.
    fn verify(
        &self,
        record: &Record,
        slots: &[u32],
        mut unindexed_verdict: impl FnMut(usize, &RuleMeta) -> Result<bool>,
        ids: &mut Vec<RuleId>,
    ) -> Result<usize> {
        let mark = ids.len();
        let mut collect = || -> Result<()> {
            for &slot in slots {
                let meta = self.meta(slot);
                if meta.exact || meta.compiled.matches(record)? {
                    ids.push(meta.id);
                }
            }
            for (k, &slot) in self.unindexed.iter().enumerate() {
                let meta = self.meta(slot);
                if unindexed_verdict(k, meta)? {
                    ids.push(meta.id);
                }
            }
            Ok(())
        };
        if let Err(e) = collect() {
            ids.truncate(mark);
            return Err(e);
        }
        ids[mark..].sort_unstable();
        Ok(slots.len() + self.unindexed.len())
    }

    /// Report `candidates` admitted rules and `matches` matches.
    fn count_matches(&self, candidates: usize, matches: usize) {
        if let Some(c) = &self.candidates_obs {
            c.add(candidates as u64);
        }
        if let Some(c) = &self.matches_obs {
            c.add(matches as u64);
        }
    }

    /// Report the key evaluations behind `memo`.
    fn count_key_evals(&self, memo: &KeyMemo) {
        if let Some(c) = &self.key_evals_obs {
            c.add(memo.evals() as u64);
        }
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
            Posting::Range { dim, low } => {
                let removed = self.dims[dim].ranges.remove(low.as_ref(), slot);
                debug_assert!(removed, "rule {id} was posted under its range");
                self.release(dim);
            }
            Posting::Eq {
                dim,
                values,
                second,
            } => {
                for value in values {
                    if let Entry::Occupied(mut cluster) = self.dims[dim].eq.entry(value) {
                        cluster.get_mut().remove(&second, slot);
                        if cluster.get().is_empty() {
                            cluster.remove();
                        }
                    }
                }
                if let Some((second_dim, _)) = second {
                    self.release(second_dim);
                }
                self.release(dim);
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
        // A batch of one, every key on demand.
        let mut memo = KeyMemo::default();
        memo.reset(self.keys.len(), 1);
        let mut slots = [Vec::new()];
        self.probe(&[record], &memo, &mut slots);
        self.count_key_evals(&memo);
        let mut ids = Vec::new();
        let verdict = |_, rule: &RuleMeta| rule.compiled.matches(record);
        let candidates = self.verify(record, &slots[0], verdict, &mut ids)?;
        self.count_matches(candidates, ids.len());
        Ok(ids)
    }

    /// [`match_record`](Matcher::match_record) per record, except that
    /// what every record of the batch evaluates goes through the batch
    /// VM first, one pass per expression: the access-path keys, whose
    /// columns the probe then reads, and the unindexed rules. Index
    /// candidates are verified record by record: the second constraint
    /// exists so that few records share a candidate, and a rule-major
    /// group of one or two records costs more to build than it saves
    /// (DESIGN.md D1 records the trade-off for wide clusters). The ids
    /// are appended to the scratch's flat buffer, and the counters are
    /// added once for the batch.
    fn match_batch(
        &self,
        records: &[&Record],
        scratch: &mut MatchScratch,
        out: &mut Vec<Result<Range<usize>>>,
    ) {
        out.clear();
        let MatchScratch {
            ids,
            expr,
            bools,
            slots,
            verdicts,
            keys: memo,
        } = scratch;
        let base = ids.len();
        let n = records.len();
        memo.reset(self.keys.len(), n);
        let key_dims = &self.dims[self.schema.len()..];
        for (k, (key, index)) in self.keys.iter().zip(key_dims).enumerate() {
            // A key reached only from inside a cluster stays lazy.
            if let (Some(key), false) = (key, index.is_empty()) {
                memo.fill(k, key, records, expr);
            }
        }
        if slots.len() < n {
            slots.resize_with(n, Vec::new);
        }
        let slots = &mut slots[..n];
        slots.iter_mut().for_each(Vec::clear);
        self.probe(records, memo, slots);
        self.count_key_evals(memo);
        // Rule-major verdicts: rule `k` on record `i` at `k * n + i`.
        verdicts.clear();
        for &slot in &self.unindexed {
            self.meta(slot)
                .compiled
                .matches_batch(records, |r| *r, expr, bools);
            verdicts.append(bools);
        }
        let mut candidates = 0;
        for (i, (record, slots)) in records.iter().zip(slots.iter()).enumerate() {
            let start = ids.len();
            let verdict = |k, _: &RuleMeta| std::mem::replace(&mut verdicts[k * n + i], Ok(false));
            out.push(self.verify(record, slots, verdict, ids).map(|admitted| {
                candidates += admitted;
                start..ids.len()
            }));
        }
        self.count_matches(candidates, ids.len() - base);
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
        m.add_rule(Rule::new(1, "", parse("length(sym) != 2").unwrap()))
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
            // Key access path, field second: `qty % 2` = 0, sym in ['A','B').
            "sym LIKE 'A%' AND qty % 2 = 0",
            "sym LIKE '_%'",
            "length(sym) = 2 AND px > 100",
            // Field access path (a field wins at equal rank), key second;
            // the two rules share the key `qty % 3`.
            "sym = 'K' AND qty % 3 = 1",
            "sym = 'K' AND 2 = qty % 3",
        ];
        for (i, p) in preds.iter().enumerate() {
            m.add_rule(Rule::new(i as u64, "", parse(p).unwrap()))
                .unwrap();
        }
        assert_eq!(m.unindexed_count(), 1);
        assert_eq!(m.key_by_text.len(), 3);
        for (text, access) in [("qty % 2", true), ("length(sym)", true), ("qty % 3", false)] {
            let dim = m.schema.len() + m.key_by_text[text] as usize;
            assert_eq!(!m.dims[dim].is_empty(), access, "{text}");
        }
        // (record, matches, rules the index admits)
        let cases = [
            (rec("A", 12.0, 7), vec![0, 2, 4, 6], 4),
            (rec("A", 18.0, 8), vec![0, 1, 4, 5, 6], 5),
            (rec("B", 1.0, 7), vec![3, 6], 2),
            (rec("AB", 1.0, 2), vec![5, 6], 2),
            (rec("AB", 150.0, 3), vec![6, 7], 2),
            (rec("C", 50.0, 7), vec![6], 1),
            (rec("K", 1.0, 4), vec![6, 8], 2),
            (rec("K", 1.0, 5), vec![6, 9], 2),
            (rec("K", 1.0, 3), vec![6], 1),
        ];
        for (r, want, admitted) in cases {
            let before = candidates.get();
            assert_eq!(m.match_record(&r).unwrap(), want, "{r}");
            assert_eq!(candidates.get() - before, admitted, "{r}");
        }
        // A key lives as long as a rule is posted under it.
        m.remove_rule(8).unwrap();
        assert!(m.key_by_text.contains_key("qty % 3"));
        assert_eq!(m.match_record(&rec("K", 1.0, 5)).unwrap(), vec![6, 9]);
        m.remove_rule(9).unwrap();
        assert!(!m.key_by_text.contains_key("qty % 3"));
        // Removal empties every structure the rules were posted in.
        for i in 0..8 {
            m.remove_rule(i as u64).unwrap();
        }
        assert!(m.is_empty());
        assert!(m.dims.iter().all(DimIndex::is_empty));
        assert!(m.unindexed.is_empty());
        assert_eq!(m.free.len(), m.slab.len());
        assert!(m.key_by_text.is_empty());
        assert_eq!(m.free_keys.len(), m.keys.len());
        assert!(m.keys.iter().all(Option::is_none));
        // A new key reuses a vacated slot.
        m.add_rule(Rule::new(1, "", parse("qty * 2 BETWEEN 4 AND 8").unwrap()))
            .unwrap();
        assert_eq!(m.keys.len(), 3);
        assert_eq!(m.match_record(&rec("Z", 0.0, 3)).unwrap(), vec![1]);
        assert!(m.match_record(&rec("Z", 0.0, 5)).unwrap().is_empty());
    }

    #[test]
    fn a_key_is_evaluated_at_most_once_per_record() {
        let mut m = IndexedMatcher::new(schema());
        let registry = Registry::new();
        m.bind_obs(&registry);
        let evals = registry.counter("evdb_rules_key_evals_total");
        // One key: an access path, and the second constraint in a cluster
        // on each of two fields.
        let preds = [
            "qty % 3 = 1",
            "sym = 'K' AND qty % 3 = 1",
            "px = 1.0 AND qty % 3 BETWEEN 1 AND 2",
        ];
        for (i, p) in preds.iter().enumerate() {
            m.add_rule(Rule::new(i as u64, "", parse(p).unwrap()))
                .unwrap();
        }
        assert_eq!(m.key_by_text.len(), 1);
        let delta = |m: &IndexedMatcher, r: &Record, want: Vec<RuleId>| {
            let before = evals.get();
            assert_eq!(m.match_record(r).unwrap(), want, "{r}");
            let per_record = evals.get() - before;
            // The batch entry point shares one memo across records.
            let (mut scratch, mut out) = (MatchScratch::new(), Vec::new());
            m.match_batch(&[r, r, r], &mut scratch, &mut out);
            assert!(out.iter().all(|ids| scratch.ids()[ids.as_ref().unwrap().clone()] == want));
            assert_eq!(evals.get() - before, 4 * per_record, "{r}");
            per_record
        };
        // Reached three times (two clusters and the access path): once.
        assert_eq!(delta(&m, &rec("K", 1.0, 4), vec![0, 1, 2]), 1);
        assert_eq!(delta(&m, &rec("X", 2.0, 5), vec![]), 1);
        // Without the access-path rule the key is evaluated only for
        // records that land in a cluster keyed by it.
        m.remove_rule(0).unwrap();
        assert_eq!(delta(&m, &rec("X", 2.0, 4), vec![]), 0);
        assert_eq!(delta(&m, &rec("K", 2.0, 4), vec![1]), 1);
    }

    #[test]
    fn a_failing_key_excludes_no_rule() {
        // `qty * i64::MAX` overflows for qty >= 2; a NULL key (division
        // by zero) matches nothing.
        let mut m = IndexedMatcher::new(schema());
        let (candidates, _) = counted(&mut m);
        let preds = [
            "sym LIKE 'B%' AND qty * 9223372036854775807 = 9223372036854775807",
            "sym LIKE 'C%' AND qty * 9223372036854775807 IN (0, 9223372036854775807)",
            "sym = 'D' AND qty * 9223372036854775807 >= 0",
            "10 / (qty - 2) = 5",
        ];
        for (i, p) in preds.iter().enumerate() {
            m.add_rule(Rule::new(i as u64, "", parse(p).unwrap()))
                .unwrap();
        }
        assert_eq!(m.unindexed_count(), 0);
        assert_eq!(m.match_record(&rec("B", 0.0, 1)).unwrap(), vec![0]);
        assert_eq!(m.match_record(&rec("C", 0.0, 0)).unwrap(), vec![1]);
        // Verification alone would report exactly this error.
        let poisoned = rec("D", 0.0, 2);
        assert_eq!(
            m.match_record(&poisoned).unwrap_err().to_string(),
            m.meta(m.by_id[&2])
                .compiled
                .matches(&poisoned)
                .unwrap_err()
                .to_string()
        );
        // The key fails: rules 0 and 1 are narrowed by their LIKE range
        // only, and the one admitted surfaces the error by verification.
        for (sym, errs) in [("B", true), ("C", true), ("A", false), ("D", true)] {
            let before = candidates.get();
            let got = m.match_record(&rec(sym, 0.0, 2));
            assert_eq!(got.is_err(), errs, "{sym}: {got:?}");
            if !errs {
                assert_eq!(candidates.get() - before, 0, "{sym}");
            }
        }
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
        let rules = || m.slab.iter().flatten();
        assert!(rules().all(|meta| meta.exact));
        rules().for_each(|meta| meta.compiled.enable_feedback());
        let ticks: Vec<Record> = (0..1_000)
            .map(|_| rec(&format!("S{}", next(8)), next(10_000) as f64 / 100.0, 1))
            .collect();
        for t in &ticks {
            m.match_record(t).unwrap();
        }
        assert!(matches.get() > 1_000, "{} matches", matches.get());
        assert_eq!(candidates.get(), matches.get());
        // The batch entry point admits exactly the same rules.
        let per_record = candidates.get();
        let refs: Vec<&Record> = ticks.iter().collect();
        let (mut scratch, mut out) = (MatchScratch::new(), Vec::new());
        m.match_batch(&refs, &mut scratch, &mut out);
        assert_eq!(candidates.get(), 2 * per_record);
        assert_eq!(matches.get(), 2 * per_record);
        // Exact postings: admission was the verdict, no predicate ran.
        let evaluated: u64 = rules()
            .flat_map(|meta| meta.compiled.block_feedback())
            .map(|(evals, _)| evals)
            .sum();
        assert_eq!(evaluated, 0);
    }

    #[test]
    fn only_fully_posted_predicates_are_exact() {
        let mut m = IndexedMatcher::new(schema());
        let preds = [
            ("sym = 'A' AND px BETWEEN 1 AND 2", true),
            ("sym IN ('A', 'B') AND px < 5", true),
            ("px > 100", true),
            ("sym = 'A'", true),
            ("sym = 'A' AND px > 1 AND qty < 5", false), // a third conjunct
            ("sym = 'A' AND qty IN (1, 2)", false),      // an `In` second
            ("qty >= 10 AND qty < 20", false),           // same dimension twice
            ("sym LIKE 'A%'", false),
            ("sym = 'A' AND qty % 3 = 1", false),
            ("qty % 3 = 1", false),
        ];
        for (i, (p, exact)) in preds.iter().enumerate() {
            m.add_rule(Rule::new(i as u64, "", parse(p).unwrap()))
                .unwrap();
            assert_eq!(m.meta(m.by_id[&(i as u64)]).exact, *exact, "{p}");
        }
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
            // One erroring key shared by two rules, one of them behind a
            // LIKE second constraint.
            "qty * 9223372036854775807 = 9223372036854775807",
            "sym LIKE 'B%' AND qty * 9223372036854775807 = 9223372036854775807",
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
            rec("D", 9.0, 2),
        ];
        let refs: Vec<&Record> = records.iter().collect();
        let (mut scratch, mut out) = (MatchScratch::new(), Vec::new());
        m.match_batch(&refs, &mut scratch, &mut out);
        assert_eq!(out.len(), records.len());
        for (r, batched) in records.iter().zip(&out) {
            let single = m.match_record(r);
            match (&single, batched) {
                (Ok(a), Ok(b)) => assert_eq!(a[..], scratch.ids()[b.clone()], "{r}"),
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{r}"),
                _ => panic!("{r}: {single:?} vs {batched:?}"),
            }
        }
        let ok: Vec<bool> = out.iter().map(|r| r.is_ok()).collect();
        assert_eq!(ok, [true, false, false, false, true, true, false]);
        let hits = |i: usize| &scratch.ids()[out[i].as_ref().unwrap().clone()];
        assert_eq!(hits(0), [0, 1, 2, 3, 5, 6]);
        assert_eq!(hits(5), [2, 4, 5, 6, 7]);
        // A second call appends: both calls' ranges read their hits
        // until the caller clears.
        let mut again = Vec::new();
        m.match_batch(&refs[5..], &mut scratch, &mut again);
        let first = out[5].as_ref().unwrap().clone();
        let second = again[0].as_ref().unwrap().clone();
        assert_eq!(second.start, first.end);
        assert_eq!(scratch.ids()[first], scratch.ids()[second]);
        scratch.clear_ids();
        assert!(scratch.ids().is_empty());
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
