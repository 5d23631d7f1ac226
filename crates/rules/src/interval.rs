//! The interval index behind every range posting (DESIGN.md D1).
//!
//! One structure answers "which postings contain `v`" for all three
//! places a rule can be posted under a range: a field's own range rules,
//! the second constraint inside an equality cluster, and (as the
//! degenerate interval `[v, v]`) a second *equality* inside a cluster.
//!
//! Layout: postings sorted by `(low bound, slot)` and cut into blocks of
//! at most [`BLOCK_MAX`]; each block keeps the greatest upper bound it
//! holds. A stab binary-searches the blocks that start at or below `v`
//! and scans only those whose summary reaches `v` — for band-shaped
//! rule sets that is the one or two blocks around `v`, however many
//! blocks sort below it. Insert and remove touch one block: a memmove of
//! at most `BLOCK_MAX` postings and one summary recomputation, plus an
//! occasional split or merge that moves block *headers*, never postings
//! of other blocks. Nothing is ever rebuilt.
//!
//! Invariants (checked by the in-crate proptest against a brute-force
//! filter):
//!
//! * no block is empty, and every block holds at most `BLOCK_MAX`;
//! * postings are globally sorted by `(low, slot)`, an open low first;
//! * `max_high` is `None` iff some posting in the block is open above,
//!   else the greatest `high` value in the block;
//! * two adjacent blocks together hold more than `BLOCK_MAX / 2`, so the
//!   block count stays proportional to the posting count under churn.
//!
//! Positions use [`Value`]'s total order; membership uses SQL comparison
//! ([`Bound::admits_above`] / [`Bound::admits_below`]), so a probe value
//! of an incomparable type lands somewhere harmless and matches nothing.

use evdb_expr::analysis::Bound;
use evdb_types::Value;

/// Most postings a block holds before it splits in two.
const BLOCK_MAX: usize = 32;

/// A range of one field's values; `None` is an open end. `low > high`
/// is allowed and contains nothing.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Interval {
    pub low: Option<Bound>,
    pub high: Option<Bound>,
}

impl Interval {
    /// The degenerate interval `[value, value]` (an equality).
    pub fn point(value: Value) -> Interval {
        let bound = Bound {
            value,
            inclusive: true,
        };
        Interval {
            low: Some(bound.clone()),
            high: Some(bound),
        }
    }

    /// SQL membership: NULL and incomparable values are inside no bound.
    pub fn contains(&self, v: &Value) -> bool {
        self.low.as_ref().is_none_or(|b| b.admits_above(v))
            && self.high.as_ref().is_none_or(|b| b.admits_below(v))
    }

    /// The low bound's value, the first half of a posting's sort key.
    pub fn low_value(&self) -> Option<&Value> {
        self.low.as_ref().map(|b| &b.value)
    }
}

#[derive(Debug)]
struct Posting {
    interval: Interval,
    slot: u32,
}

impl Posting {
    /// Sort key; `Option`'s order puts an open low (`None`) first.
    fn key(&self) -> (Option<&Value>, u32) {
        (self.interval.low_value(), self.slot)
    }
}

#[derive(Debug)]
struct Block {
    postings: Vec<Posting>,
    /// Greatest upper bound in the block; `None` = some posting is open
    /// above (blocks are never empty, so `None` is unambiguous).
    max_high: Option<Value>,
}

impl Block {
    fn new(postings: Vec<Posting>) -> Block {
        let mut block = Block {
            postings,
            max_high: None,
        };
        block.summarize();
        block
    }

    /// Recompute `max_high` after the block's postings changed.
    fn summarize(&mut self) {
        let mut max: Option<&Value> = None;
        for p in &self.postings {
            match &p.interval.high {
                None => {
                    self.max_high = None;
                    return;
                }
                Some(b) if max.is_none_or(|m| b.value > *m) => max = Some(&b.value),
                Some(_) => {}
            }
        }
        self.max_high = max.cloned();
    }

    fn first_key(&self) -> (Option<&Value>, u32) {
        self.postings[0].key()
    }
}

/// Interval postings of one field, stabbed by value.
#[derive(Debug, Default)]
pub(crate) struct IntervalIndex {
    blocks: Vec<Block>,
}

impl IntervalIndex {
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The block `key` sorts into: the last one starting at or before
    /// it, or the first block for a key below everything.
    fn block_of(&self, key: (Option<&Value>, u32)) -> usize {
        self.blocks
            .partition_point(|b| b.first_key() <= key)
            .saturating_sub(1)
    }

    /// Post `slot` under `interval`. `(interval.low, slot)` must not be
    /// posted already.
    pub fn insert(&mut self, interval: Interval, slot: u32) {
        let posting = Posting { interval, slot };
        if self.blocks.is_empty() {
            self.blocks.push(Block::new(vec![posting]));
            return;
        }
        let bi = self.block_of(posting.key());
        let block = &mut self.blocks[bi];
        let at = block.postings.partition_point(|p| p.key() < posting.key());
        block.postings.insert(at, posting);
        if block.postings.len() > BLOCK_MAX {
            let tail = block.postings.split_off(BLOCK_MAX / 2);
            block.summarize();
            self.blocks.insert(bi + 1, Block::new(tail));
        } else {
            block.summarize();
        }
    }

    /// Drop the posting of `slot` whose low bound is `low`; false if
    /// there is none.
    pub fn remove(&mut self, low: Option<&Value>, slot: u32) -> bool {
        if self.blocks.is_empty() {
            return false;
        }
        let key = (low, slot);
        let bi = self.block_of(key);
        let block = &mut self.blocks[bi];
        let Ok(at) = block.postings.binary_search_by(|p| p.key().cmp(&key)) else {
            return false;
        };
        block.postings.remove(at);
        if block.postings.is_empty() {
            self.blocks.remove(bi);
            return true;
        }
        block.summarize();
        self.merge_with_next_if_small(bi);
        if bi > 0 {
            self.merge_with_next_if_small(bi - 1);
        }
        true
    }

    fn merge_with_next_if_small(&mut self, bi: usize) {
        let Some(next) = self.blocks.get(bi + 1) else {
            return;
        };
        if self.blocks[bi].postings.len() + next.postings.len() <= BLOCK_MAX / 2 {
            let next = self.blocks.remove(bi + 1);
            let block = &mut self.blocks[bi];
            block.postings.extend(next.postings);
            block.summarize();
        }
    }

    /// Append the slot of every posting, in `(low, slot)` order.
    pub fn all(&self, out: &mut Vec<u32>) {
        for block in &self.blocks {
            out.extend(block.postings.iter().map(|p| p.slot));
        }
    }

    /// Append the slot of every posting whose interval contains `v`, in
    /// `(low, slot)` order.
    pub fn stab(&self, v: &Value, out: &mut Vec<u32>) {
        // A block starting above `v` holds nothing at or below it.
        let live = self
            .blocks
            .partition_point(|b| b.first_key().0.is_none_or(|low| low <= v));
        for block in &self.blocks[..live] {
            if block.max_high.as_ref().is_some_and(|high| high < v) {
                continue;
            }
            out.extend(
                block
                    .postings
                    .iter()
                    .filter(|p| p.interval.contains(v))
                    .map(|p| p.slot),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl IntervalIndex {
        /// Assert the module-level invariants.
        fn check(&self) {
            let mut prev: Option<(Option<&Value>, u32)> = None;
            for (bi, block) in self.blocks.iter().enumerate() {
                assert!(!block.postings.is_empty() && block.postings.len() <= BLOCK_MAX);
                for p in &block.postings {
                    assert!(prev.is_none_or(|k| k < p.key()), "unsorted at block {bi}");
                    prev = Some(p.key());
                }
                let open = block.postings.iter().any(|p| p.interval.high.is_none());
                let max = block
                    .postings
                    .iter()
                    .filter_map(|p| p.interval.high.as_ref().map(|b| &b.value))
                    .max();
                assert_eq!(block.max_high.as_ref(), if open { None } else { max });
                if let Some(next) = self.blocks.get(bi + 1) {
                    assert!(block.postings.len() + next.postings.len() > BLOCK_MAX / 2);
                }
            }
        }
    }

    fn bound(value: Value, inclusive: bool) -> Option<Bound> {
        Some(Bound { value, inclusive })
    }

    #[test]
    fn bounds_at_the_probe_value() {
        let mut idx = IntervalIndex::default();
        let iv = |lo: i64, lo_inc, hi: i64, hi_inc| Interval {
            low: bound(Value::Int(lo), lo_inc),
            high: bound(Value::Int(hi), hi_inc),
        };
        idx.insert(iv(1, true, 5, true), 0);
        idx.insert(iv(1, false, 5, false), 1);
        idx.insert(Interval::point(Value::Int(5)), 2);
        idx.insert(iv(7, true, 3, true), 3); // low > high: empty
        idx.insert(
            Interval {
                low: None,
                high: bound(Value::Float(1.0), true),
            },
            4,
        );
        idx.insert(
            Interval {
                low: bound(Value::Float(5.0), false),
                high: None,
            },
            5,
        );
        let stab = |v: Value| {
            let mut out = Vec::new();
            idx.stab(&v, &mut out);
            out.sort_unstable();
            out
        };
        assert_eq!(stab(Value::Int(1)), vec![0, 4]);
        assert_eq!(stab(Value::Float(1.0)), vec![0, 4]);
        assert_eq!(stab(Value::Int(3)), vec![0, 1]);
        assert_eq!(stab(Value::Float(5.0)), vec![0, 2]);
        assert_eq!(stab(Value::Float(5.5)), vec![5]);
        assert_eq!(stab(Value::Int(0)), vec![4]);
        // NULL and incomparable types are in no interval, open or not.
        assert_eq!(stab(Value::Null), Vec::<u32>::new());
        assert_eq!(stab(Value::from("x")), Vec::<u32>::new());
        assert_eq!(stab(Value::Bool(true)), Vec::<u32>::new());
    }

    #[test]
    fn churn_keeps_blocks_proportional() {
        let mut idx = IntervalIndex::default();
        for i in 0..1_000u32 {
            idx.insert(Interval::point(Value::Int(i as i64)), i);
        }
        idx.check();
        for i in (0..1_000u32).filter(|i| i % 50 != 0) {
            assert!(idx.remove(Some(&Value::Int(i as i64)), i));
        }
        idx.check();
        assert!(
            idx.blocks.len() <= 4,
            "{} blocks for 20 postings",
            idx.blocks.len()
        );
        assert!(!idx.remove(Some(&Value::Int(1)), 1));
        for i in (0..1_000u32).step_by(50) {
            assert!(idx.remove(Some(&Value::Int(i as i64)), i));
        }
        assert!(idx.is_empty());
    }

    /// Numeric domain: ints and floats on a shared half-step grid, so
    /// probes land exactly on bounds of the other numeric type.
    fn arb_num() -> BoxedStrategy<Value> {
        prop_oneof![
            (-4i64..12).prop_map(Value::Int),
            (-8i64..24).prop_map(|h| Value::Float(h as f64 / 2.0)),
        ]
        .boxed()
    }

    fn arb_str() -> BoxedStrategy<Value> {
        (0usize..6)
            .prop_map(|i| Value::from(["", "S", "S1", "S10", "S2", "T"][i]))
            .boxed()
    }

    fn arb_interval(value: BoxedStrategy<Value>) -> impl Strategy<Value = Interval> {
        let side = || proptest::option::of((value.clone(), any::<bool>()));
        (side(), side()).prop_map(|(low, high)| Interval {
            low: low.map(|(value, inclusive)| Bound { value, inclusive }),
            high: high.map(|(value, inclusive)| Bound { value, inclusive }),
        })
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(Interval),
        /// Remove the live posting at this index (modulo the live count).
        Remove(usize),
        Stab(Value),
    }

    fn arb_ops(value: BoxedStrategy<Value>) -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![
                4 => arb_interval(value.clone()).prop_map(Op::Insert),
                1 => (0usize..1_000).prop_map(Op::Remove),
                2 => value.prop_map(Op::Stab),
            ],
            1..400,
        )
    }

    /// Run `ops` against the index and a plain `Vec` filtered by
    /// [`Interval::contains`].
    fn against_brute_force(ops: Vec<Op>) {
        let mut idx = IntervalIndex::default();
        let mut live: Vec<(Interval, u32)> = Vec::new();
        let mut next_slot = 0u32;
        for op in ops {
            match op {
                Op::Insert(interval) => {
                    idx.insert(interval.clone(), next_slot);
                    live.push((interval, next_slot));
                    next_slot += 1;
                }
                Op::Remove(i) if !live.is_empty() => {
                    let (interval, slot) = live.swap_remove(i % live.len());
                    assert!(idx.remove(interval.low_value(), slot));
                    assert!(!idx.remove(interval.low_value(), slot));
                }
                Op::Remove(_) => assert!(!idx.remove(None, 0)),
                Op::Stab(v) => {
                    let mut got = Vec::new();
                    idx.stab(&v, &mut got);
                    got.sort_unstable();
                    let mut want: Vec<u32> = live
                        .iter()
                        .filter(|(interval, _)| interval.contains(&v))
                        .map(|(_, slot)| *slot)
                        .collect();
                    want.sort_unstable();
                    assert_eq!(got, want, "stab {v}");
                }
            }
            idx.check();
        }
        assert_eq!(idx.is_empty(), live.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn numeric_index_equals_brute_force(ops in arb_ops(arb_num())) {
            against_brute_force(ops);
        }

        #[test]
        fn string_index_equals_brute_force(ops in arb_ops(arb_str())) {
            against_brute_force(ops);
        }
    }
}
