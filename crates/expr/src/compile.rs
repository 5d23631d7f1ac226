//! Compilation of [`BoundExpr`] trees into flat bytecode (DESIGN.md D11).
//!
//! [`CompiledExpr::compile`] lowers a bound expression into a stack-based
//! program evaluated by a tight loop, applying three optimizations the
//! tree-walking interpreter cannot:
//!
//! 1. **Constant folding** — any field-free subtree (literal arithmetic,
//!    `BETWEEN` bounds, function calls over constants) is evaluated once
//!    at compile time and replaced by a single `Const`. If the constant
//!    evaluation would *error*, the subtree is kept as code so the error
//!    surfaces at runtime exactly as the interpreter would raise it.
//! 2. **Conjunct reordering** — the top-level `AND` chain is split into
//!    blocks; within each maximal run of adjacent *infallible* blocks,
//!    cheap blocks (numeric comparisons) are moved before expensive ones
//!    (`LIKE`, function calls). Blocks that can raise errors are
//!    immovable barriers, so error precedence is bit-identical to the
//!    interpreter. [`CompiledExpr::resequence`] optionally re-sorts runs
//!    by observed pass rate (most selective first).
//! 3. **Allocation-free evaluation** — operands are `Cow<'_, Value>`
//!    borrowing from the record and the constant pool; comparisons and
//!    `LIKE` never clone strings; the operand stack lives in a fixed
//!    inline buffer (heap fallback only for pathologically deep
//!    expressions); constant `LIKE` patterns are pre-classified
//!    ([`LikePattern`]). The numeric-predicate path performs **zero**
//!    heap allocation per event (asserted by `tests/alloc_free.rs`).
//!
//! Semantics are defined by the interpreter ([`crate::eval`]): both
//! engines share the same helper functions (`three_and`, `three_cmp`,
//! `arith`, …) and a differential proptest (`tests/prop_compiled.rs`)
//! asserts value-and-error agreement on random trees × records.
//!
//! Global compile statistics (`evdb_expr_compiled_total`, fold counters)
//! are exported via [`compiler_stats`] and bridged into the obs registry
//! by the server, per the D9 no-silent-caps rule.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use evdb_types::{Error, Record, Result, Value};

use crate::ast::{BinaryOp, UnaryOp};
use crate::bind::BoundExpr;
use crate::eval::{
    arith, like_values, neg_value, not_value, three_and, three_cmp, three_negate, three_or, NULL,
};
use crate::functions::Function;
use crate::like::LikePattern;

/// Operand-stack slots held inline (no heap) during evaluation. Small
/// on purpose: the array is initialized per `eval`, and after peephole
/// fusion almost every predicate runs in a handful of slots — deeper
/// programs take the heap-allocated fallback.
const INLINE_STACK: usize = 8;

/// Minimum observations before feedback outranks the static cost model.
const FEEDBACK_MIN_EVALS: u64 = 64;

// ---- global compile statistics (D9: no silent behavior) ----------------

static COMPILED_TOTAL: AtomicU64 = AtomicU64::new(0);
static FOLDED_SUBTREES_TOTAL: AtomicU64 = AtomicU64::new(0);
static FOLDED_NODES_TOTAL: AtomicU64 = AtomicU64::new(0);
static LIKE_PRECOMPILED_TOTAL: AtomicU64 = AtomicU64::new(0);
static BATCHES_TOTAL: AtomicU64 = AtomicU64::new(0);
static BATCHED_RECORDS_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Snapshot of process-wide compiler statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompilerStats {
    /// Expressions compiled since process start.
    pub compiled_total: u64,
    /// Constant subtrees replaced by a single `Const`.
    pub folded_subtrees: u64,
    /// Tree nodes eliminated by folding.
    pub folded_nodes: u64,
    /// Constant LIKE patterns pre-classified into shape matchers.
    pub like_precompiled: u64,
}

/// Read the process-wide compiler statistics.
pub fn compiler_stats() -> CompilerStats {
    CompilerStats {
        compiled_total: COMPILED_TOTAL.load(Ordering::Relaxed),
        folded_subtrees: FOLDED_SUBTREES_TOTAL.load(Ordering::Relaxed),
        folded_nodes: FOLDED_NODES_TOTAL.load(Ordering::Relaxed),
        like_precompiled: LIKE_PRECOMPILED_TOTAL.load(Ordering::Relaxed),
    }
}

/// Process-wide batch-evaluation counters: `(batches, records)` pushed
/// through [`CompiledExpr::eval_batch`]. Bridged into the obs registry
/// as `evdb_expr_batches_total` (D9: batched work is still counted).
pub fn batch_stats() -> (u64, u64) {
    (
        BATCHES_TOTAL.load(Ordering::Relaxed),
        BATCHED_RECORDS_TOTAL.load(Ordering::Relaxed),
    )
}

/// Per-compile folding statistics (for tests and introspection).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoldStats {
    /// Constant subtrees folded in this compile.
    pub folded_subtrees: u64,
    /// Nodes eliminated in this compile.
    pub folded_nodes: u64,
    /// Constant LIKE patterns precompiled in this compile.
    pub like_precompiled: u64,
}

// ---- instruction set ---------------------------------------------------

/// One bytecode instruction. Jump targets are absolute instruction
/// indices within the owning block.
#[derive(Debug)]
enum Inst {
    /// Push constant-pool entry (borrowed).
    Const(u32),
    /// Push record field (borrowed; `NULL` if absent).
    Field(u32),
    /// Kleene NOT on the top slot.
    Not,
    /// Checked numeric negation of the top slot.
    Neg,
    /// Replace top with `IS [NOT] NULL` test.
    IsNull { negated: bool },
    /// Pop two, push three-valued comparison.
    Cmp(BinaryOp),
    /// Pop two, push checked arithmetic.
    Arith(BinaryOp),
    /// Pop two, push Kleene AND.
    And,
    /// Pop two, push Kleene OR.
    Or,
    /// Peek: jump if top is FALSE (value stays).
    JumpIfFalse(u32),
    /// Peek: jump if top is TRUE (value stays).
    JumpIfTrue(u32),
    /// Peek: jump if top is NULL (value stays).
    JumpIfNull(u32),
    /// Unconditional jump.
    Jump(u32),
    /// Discard the top slot.
    Pop,
    /// Pop high, low, value; push `[NOT] BETWEEN` result.
    Between { negated: bool },
    /// Pop pattern, value; push `[NOT] LIKE` result.
    Like { negated: bool },
    /// Pop value; push match against a precompiled constant pattern.
    /// `pat` indexes the pattern text in the const pool (error messages).
    LikeConst {
        pat: u32,
        matcher: LikePattern,
        negated: bool,
    },
    /// Pop `argc` arguments, call, push result.
    Call {
        func: &'static Function,
        argc: u32,
    },
    /// Pop condition; jump unless it is TRUE (searched CASE).
    BranchNotTrue(u32),
    /// Pop WHEN value; peek scrutinee below; jump unless equal
    /// (operand CASE; a NULL scrutinee matches nothing).
    CaseNeJump(u32),
    /// IN-list item test. Stack is `[v, saw_null, item]`: pop item; if
    /// item is NULL set `saw_null`; if it equals `v`, replace all three
    /// with the hit result and jump to `target`.
    InCmp { negated: bool, target: u32 },
    /// Pop `saw_null` and `v`; push the IN-list miss result.
    InFinish { negated: bool },
    /// Fused `field ⋈ const`: no operand-stack traffic (peephole;
    /// straight-line blocks only).
    FieldCmpConst {
        field: u32,
        konst: u32,
        op: BinaryOp,
    },
    /// Fused `field [NOT] BETWEEN const AND const` (peephole).
    FieldBetweenConst {
        field: u32,
        lo: u32,
        hi: u32,
        negated: bool,
    },
}

impl Inst {
    /// Static cost estimate (relative units) for conjunct ordering.
    fn cost(&self) -> u32 {
        match self {
            Inst::Const(_) | Inst::Field(_) => 1,
            Inst::Not | Inst::Neg | Inst::IsNull { .. } => 1,
            Inst::Cmp(_) | Inst::And | Inst::Or => 1,
            Inst::Arith(_) => 2,
            Inst::Jump(_)
            | Inst::JumpIfFalse(_)
            | Inst::JumpIfTrue(_)
            | Inst::JumpIfNull(_)
            | Inst::Pop
            | Inst::BranchNotTrue(_)
            | Inst::CaseNeJump(_) => 1,
            Inst::Between { .. } => 2,
            Inst::FieldCmpConst { .. } => 1,
            Inst::FieldBetweenConst { .. } => 2,
            Inst::InCmp { .. } | Inst::InFinish { .. } => 2,
            Inst::LikeConst { matcher, .. } => {
                if matcher.is_specialized() {
                    6
                } else {
                    8
                }
            }
            Inst::Like { .. } => 10,
            Inst::Call { .. } => 12,
        }
    }

    /// Can this instruction raise an [`Error`] on a record that conforms
    /// to the schema the expression was bound against? (Comparisons and
    /// LIKE are made infallible by bind-time type checking; arithmetic
    /// and negation can overflow; `abs`/`round`/`substr` can reject
    /// runtime values.)
    fn fallible(&self) -> bool {
        match self {
            Inst::Neg | Inst::Arith(_) => true,
            Inst::Call { func, .. } => matches!(func.name, "abs" | "round" | "substr"),
            _ => false,
        }
    }
}

/// Mirror a comparison so its operands can swap sides:
/// `c ⋈ f  ≡  f ⋈⁻¹ c`. `sql_cmp` is antisymmetric and NULL/incomparable
/// handling is side-symmetric, so the mirrored form is equivalent.
fn mirror(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::Le => BinaryOp::Ge,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::Ge => BinaryOp::Le,
        other => other, // Eq / Ne are symmetric
    }
}

/// Fuse `Field/Const + Cmp` and `Field + two Consts + Between` into
/// single stack-free instructions. Straight-line blocks only: rewriting
/// indices under a jump would corrupt its target, so any block with
/// control flow is left as emitted. Stack discipline guarantees the
/// matched prefix instructions are exactly the fused operation's
/// operands (each push is consumed by the adjacent pop).
fn peephole(insts: &mut Vec<Inst>) {
    if has_control_flow(insts) {
        return;
    }
    let mut out: Vec<Inst> = Vec::with_capacity(insts.len());
    for inst in insts.drain(..) {
        out.push(inst);
        let n = out.len();
        let fused = match &out[..] {
            [.., Inst::Field(f), Inst::Const(k), Inst::Cmp(op)] => Some((
                3,
                Inst::FieldCmpConst {
                    field: *f,
                    konst: *k,
                    op: *op,
                },
            )),
            [.., Inst::Const(k), Inst::Field(f), Inst::Cmp(op)] => Some((
                3,
                Inst::FieldCmpConst {
                    field: *f,
                    konst: *k,
                    op: mirror(*op),
                },
            )),
            [.., Inst::Field(f), Inst::Const(a), Inst::Const(b), Inst::Between { negated }] => {
                Some((
                    4,
                    Inst::FieldBetweenConst {
                        field: *f,
                        lo: *a,
                        hi: *b,
                        negated: *negated,
                    },
                ))
            }
            _ => None,
        };
        if let Some((width, fused)) = fused {
            out.truncate(n - width);
            out.push(fused);
        }
    }
    *insts = out;
}

/// Does the block contain any pc-manipulating instruction? Such blocks
/// cannot be peephole-fused (targets would shift) and take the
/// record-at-a-time fallback in [`CompiledExpr::eval_batch`] (records
/// diverge at a branch, so there is no common instruction stream to
/// amortize).
fn has_control_flow(insts: &[Inst]) -> bool {
    insts.iter().any(|i| {
        matches!(
            i,
            Inst::Jump(_)
                | Inst::JumpIfFalse(_)
                | Inst::JumpIfTrue(_)
                | Inst::JumpIfNull(_)
                | Inst::BranchNotTrue(_)
                | Inst::CaseNeJump(_)
                | Inst::InCmp { .. }
        )
    })
}

// ---- program structure -------------------------------------------------

/// One top-level AND conjunct, compiled to straight-line bytecode.
#[derive(Debug)]
struct Block {
    insts: Vec<Inst>,
    /// Static cost estimate.
    cost: u32,
    /// Reorder-run id: blocks may be permuted only within a run.
    run: u32,
    /// Operand-stack depth this block needs.
    max_stack: usize,
    /// No control flow: eligible for the vectorized batch interpreter.
    straight: bool,
    /// Feedback: times evaluated.
    evals: AtomicU64,
    /// Feedback: times the result was not FALSE.
    passes: AtomicU64,
}

/// A bound expression lowered to bytecode, ready for repeated evaluation.
///
/// Construction never fails: compilation is a semantics-preserving
/// lowering, and anything it cannot optimize it emits as-is.
#[derive(Debug)]
pub struct CompiledExpr {
    consts: Vec<Value>,
    /// Blocks in execution order (post-reordering).
    blocks: Vec<Block>,
    /// Max operand-stack depth over all blocks.
    max_stack: usize,
    /// Per-compile folding statistics.
    fold: FoldStats,
    /// When set, `matches` records per-block pass rates for
    /// [`CompiledExpr::resequence`].
    feedback: AtomicBool,
    /// Every block is one fused compare (`FieldCmpConst` /
    /// `FieldBetweenConst`): [`matches_batch`](Self::matches_batch)
    /// evaluates it straight into verdicts.
    compares: bool,
}

impl CompiledExpr {
    /// Lower `expr` to bytecode. Infallible; semantics are preserved
    /// exactly (see module docs and DESIGN.md D11).
    pub fn compile(expr: &BoundExpr) -> CompiledExpr {
        let empty = Record::empty();
        let mut consts = Vec::new();
        let mut fold = FoldStats::default();

        let mut conjuncts = Vec::new();
        flatten_and(expr, &mut conjuncts);

        let mut blocks: Vec<Block> = conjuncts
            .iter()
            .map(|c| {
                let mut cg = Codegen {
                    consts: &mut consts,
                    insts: Vec::new(),
                    depth: 0,
                    max_depth: 0,
                    fold: &mut fold,
                    empty: &empty,
                };
                cg.compile(c);
                debug_assert_eq!(cg.depth, 1, "block must leave exactly one value");
                peephole(&mut cg.insts);
                let cost = cg.insts.iter().map(Inst::cost).sum();
                let max_stack = cg.max_depth;
                let straight = !has_control_flow(&cg.insts);
                Block {
                    insts: cg.insts,
                    cost,
                    run: 0,
                    max_stack,
                    straight,
                    evals: AtomicU64::new(0),
                    passes: AtomicU64::new(0),
                }
            })
            .collect();

        // Assign reorder runs: each fallible block is its own run
        // (immovable barrier); maximal stretches of adjacent infallible
        // blocks share a run and may be permuted within it.
        let mut run = 0u32;
        let mut in_infallible_run = false;
        for b in &mut blocks {
            let fallible = b.insts.iter().any(Inst::fallible);
            if fallible {
                if in_infallible_run {
                    run += 1;
                }
                b.run = run;
                run += 1;
                in_infallible_run = false;
            } else {
                if !in_infallible_run {
                    in_infallible_run = true;
                }
                b.run = run;
            }
        }
        // Cheapest first within each run (stable: ties keep source order).
        blocks.sort_by_key(|b| (b.run, b.cost));

        let max_stack = blocks.iter().map(|b| b.max_stack).max().unwrap_or(0);
        let compares = blocks.iter().all(|b| {
            matches!(b.insts.as_slice(), [Inst::FieldCmpConst { .. } | Inst::FieldBetweenConst { .. }])
        });

        COMPILED_TOTAL.fetch_add(1, Ordering::Relaxed);
        FOLDED_SUBTREES_TOTAL.fetch_add(fold.folded_subtrees, Ordering::Relaxed);
        FOLDED_NODES_TOTAL.fetch_add(fold.folded_nodes, Ordering::Relaxed);
        LIKE_PRECOMPILED_TOTAL.fetch_add(fold.like_precompiled, Ordering::Relaxed);

        CompiledExpr {
            consts,
            blocks,
            max_stack,
            fold,
            feedback: AtomicBool::new(false),
            compares,
        }
    }

    /// Evaluate against one record.
    pub fn eval(&self, record: &Record) -> Result<Value> {
        self.eval_ref(record).map(Cow::into_owned)
    }

    /// Evaluate as a predicate: `NULL` and `FALSE` are both "no match".
    pub fn matches(&self, record: &Record) -> Result<bool> {
        Ok(self.eval_ref(record)?.as_bool().unwrap_or(false))
    }

    /// Folding statistics for this compile.
    pub fn fold_stats(&self) -> FoldStats {
        self.fold
    }

    /// Number of top-level conjunct blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total instruction count across all blocks.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// True if no block contains arithmetic or function-call
    /// instructions (used by fold regression tests: folded constant
    /// subtrees leave no residual computation).
    pub fn is_computation_free(&self) -> bool {
        self.blocks.iter().all(|b| {
            b.insts
                .iter()
                .all(|i| !matches!(i, Inst::Arith(_) | Inst::Neg | Inst::Call { .. }))
        })
    }

    /// Enable per-block pass-rate recording in [`CompiledExpr::matches`]
    /// (two relaxed atomic increments per block per event).
    pub fn enable_feedback(&self) {
        self.feedback.store(true, Ordering::Relaxed);
    }

    /// Re-sort blocks within each reorder run by observed pass rate,
    /// most selective (lowest pass rate) first. Blocks with fewer than
    /// a minimum number of observations keep their static-cost order.
    /// No-op without prior [`CompiledExpr::enable_feedback`] traffic.
    pub fn resequence(&mut self) {
        self.blocks.sort_by(|a, b| {
            a.run.cmp(&b.run).then_with(|| {
                let ra = pass_rate(a);
                let rb = pass_rate(b);
                match (ra, rb) {
                    (Some(x), Some(y)) => x.total_cmp(&y),
                    // Unobserved blocks keep cost order after observed ones.
                    (Some(_), None) => std::cmp::Ordering::Less,
                    (None, Some(_)) => std::cmp::Ordering::Greater,
                    (None, None) => a.cost.cmp(&b.cost),
                }
            })
        });
    }

    /// Per-block `(evals, passes)` feedback counters, in execution order.
    pub fn block_feedback(&self) -> Vec<(u64, u64)> {
        self.blocks
            .iter()
            .map(|b| {
                (
                    b.evals.load(Ordering::Relaxed),
                    b.passes.load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    fn eval_ref<'s>(&'s self, record: &'s Record) -> Result<Cow<'s, Value>> {
        if self.max_stack <= INLINE_STACK {
            let mut stack: [Cow<'s, Value>; INLINE_STACK] =
                std::array::from_fn(|_| Cow::Borrowed(&NULL));
            self.eval_blocks(record, &mut stack)
        } else {
            let mut stack: Vec<Cow<'s, Value>> =
                (0..self.max_stack).map(|_| Cow::Borrowed(&NULL)).collect();
            self.eval_blocks(record, &mut stack)
        }
    }

    fn eval_blocks<'s>(
        &'s self,
        record: &'s Record,
        stack: &mut [Cow<'s, Value>],
    ) -> Result<Cow<'s, Value>> {
        let feedback = self.feedback.load(Ordering::Relaxed);
        let mut acc: Option<Cow<'s, Value>> = None;
        for block in &self.blocks {
            let v = self.run_block(block, record, stack)?;
            if feedback {
                block.evals.fetch_add(1, Ordering::Relaxed);
                if v.as_bool() != Some(false) {
                    block.passes.fetch_add(1, Ordering::Relaxed);
                }
            }
            acc = Some(match acc {
                None => v,
                Some(a) => Cow::Owned(three_and(&a, &v)),
            });
            // Kleene AND short-circuits on FALSE only — identical to the
            // interpreter's left-fold over the original conjunct order
            // (see D11 for the reordering-safety argument).
            if acc.as_deref().and_then(Value::as_bool) == Some(false) {
                break;
            }
        }
        Ok(acc.unwrap_or(Cow::Borrowed(&NULL)))
    }

    fn run_block<'s>(
        &'s self,
        block: &'s Block,
        record: &'s Record,
        stack: &mut [Cow<'s, Value>],
    ) -> Result<Cow<'s, Value>> {
        let insts = &block.insts;
        let mut pc = 0usize;
        let mut sp = 0usize;
        while pc < insts.len() {
            match &insts[pc] {
                Inst::Const(i) => {
                    stack[sp] = Cow::Borrowed(&self.consts[*i as usize]);
                    sp += 1;
                }
                Inst::Field(i) => {
                    stack[sp] = Cow::Borrowed(record.get(*i as usize).unwrap_or(&NULL));
                    sp += 1;
                }
                Inst::Not => {
                    let v = not_value(&stack[sp - 1])?;
                    stack[sp - 1] = Cow::Owned(v);
                }
                Inst::Neg => {
                    let v = neg_value(&stack[sp - 1])?;
                    stack[sp - 1] = Cow::Owned(v);
                }
                Inst::IsNull { negated } => {
                    let b = stack[sp - 1].is_null() != *negated;
                    stack[sp - 1] = Cow::Owned(Value::Bool(b));
                }
                Inst::Cmp(op) => {
                    let v = three_cmp(&stack[sp - 2], &stack[sp - 1], *op)?;
                    sp -= 1;
                    stack[sp - 1] = Cow::Owned(v);
                }
                Inst::Arith(op) => {
                    let v = arith(*op, &stack[sp - 2], &stack[sp - 1])?;
                    sp -= 1;
                    stack[sp - 1] = Cow::Owned(v);
                }
                Inst::And => {
                    let v = three_and(&stack[sp - 2], &stack[sp - 1]);
                    sp -= 1;
                    stack[sp - 1] = Cow::Owned(v);
                }
                Inst::Or => {
                    let v = three_or(&stack[sp - 2], &stack[sp - 1]);
                    sp -= 1;
                    stack[sp - 1] = Cow::Owned(v);
                }
                Inst::JumpIfFalse(t) => {
                    if stack[sp - 1].as_bool() == Some(false) {
                        pc = *t as usize;
                        continue;
                    }
                }
                Inst::JumpIfTrue(t) => {
                    if stack[sp - 1].as_bool() == Some(true) {
                        pc = *t as usize;
                        continue;
                    }
                }
                Inst::JumpIfNull(t) => {
                    if stack[sp - 1].is_null() {
                        pc = *t as usize;
                        continue;
                    }
                }
                Inst::Jump(t) => {
                    pc = *t as usize;
                    continue;
                }
                Inst::Pop => {
                    sp -= 1;
                }
                Inst::Between { negated } => {
                    // Stack: [v, lo, hi]; evaluation order (v ≥ lo first)
                    // matches the interpreter.
                    let ge = three_cmp(&stack[sp - 3], &stack[sp - 2], BinaryOp::Ge)?;
                    let le = three_cmp(&stack[sp - 3], &stack[sp - 1], BinaryOp::Le)?;
                    let both = three_and(&ge, &le);
                    let out = three_negate(&both, *negated);
                    sp -= 2;
                    stack[sp - 1] = Cow::Owned(out);
                }
                Inst::Like { negated } => {
                    let v = like_values(&stack[sp - 2], &stack[sp - 1], *negated)?;
                    sp -= 1;
                    stack[sp - 1] = Cow::Owned(v);
                }
                Inst::LikeConst {
                    pat,
                    matcher,
                    negated,
                } => {
                    let out = match stack[sp - 1].as_str() {
                        Some(s) => Value::Bool(matcher.matches(s) != *negated),
                        None if stack[sp - 1].is_null() => Value::Null,
                        None => {
                            return Err(Error::Type(format!(
                                "LIKE applied to {} / {}",
                                &*stack[sp - 1],
                                &self.consts[*pat as usize]
                            )))
                        }
                    };
                    stack[sp - 1] = Cow::Owned(out);
                }
                Inst::Call { func, argc } => {
                    let argc = *argc as usize;
                    // Function implementations take owned `&[Value]`;
                    // cloning here is a refcount bump for strings and a
                    // copy for scalars. The scratch vec is per-thread and
                    // reused, so steady state allocates nothing.
                    let v = ARG_SCRATCH.with(|cell| {
                        let mut scratch = cell.borrow_mut();
                        scratch.clear();
                        for slot in &stack[sp - argc..sp] {
                            scratch.push((**slot).clone());
                        }
                        (func.call)(&scratch)
                    })?;
                    sp -= argc;
                    stack[sp] = Cow::Owned(v);
                    sp += 1;
                }
                Inst::BranchNotTrue(t) => {
                    sp -= 1;
                    if stack[sp].as_bool() != Some(true) {
                        pc = *t as usize;
                        continue;
                    }
                }
                Inst::CaseNeJump(t) => {
                    // Stack: [.., scrutinee, when]; NULL scrutinee never
                    // matches (sql_cmp yields None).
                    let eq = matches!(
                        stack[sp - 2].sql_cmp(&stack[sp - 1]),
                        Some(std::cmp::Ordering::Equal)
                    );
                    sp -= 1;
                    if !eq {
                        pc = *t as usize;
                        continue;
                    }
                }
                Inst::InCmp { negated, target } => {
                    // Stack: [v, saw_null, item].
                    if stack[sp - 1].is_null() {
                        stack[sp - 2] = Cow::Owned(Value::Bool(true));
                        sp -= 1;
                    } else if matches!(
                        stack[sp - 3].sql_cmp(&stack[sp - 1]),
                        Some(std::cmp::Ordering::Equal)
                    ) {
                        sp -= 3;
                        stack[sp] = Cow::Owned(Value::Bool(!*negated));
                        sp += 1;
                        pc = *target as usize;
                        continue;
                    } else {
                        sp -= 1;
                    }
                }
                Inst::FieldCmpConst { field, konst, op } => {
                    let v = record.get(*field as usize).unwrap_or(&NULL);
                    let out = three_cmp(v, &self.consts[*konst as usize], *op)?;
                    stack[sp] = Cow::Owned(out);
                    sp += 1;
                }
                Inst::FieldBetweenConst {
                    field,
                    lo,
                    hi,
                    negated,
                } => {
                    // Same evaluation order as `Between`: v ≥ lo, then
                    // v ≤ hi, then Kleene AND and optional negation.
                    let v = record.get(*field as usize).unwrap_or(&NULL);
                    let ge = three_cmp(v, &self.consts[*lo as usize], BinaryOp::Ge)?;
                    let le = three_cmp(v, &self.consts[*hi as usize], BinaryOp::Le)?;
                    let out = three_negate(&three_and(&ge, &le), *negated);
                    stack[sp] = Cow::Owned(out);
                    sp += 1;
                }
                Inst::InFinish { negated } => {
                    // Stack: [v, saw_null].
                    let saw = stack[sp - 1].as_bool() == Some(true);
                    sp -= 2;
                    stack[sp] = Cow::Owned(if saw { Value::Null } else { Value::Bool(*negated) });
                    sp += 1;
                }
            }
            pc += 1;
        }
        debug_assert_eq!(sp, 1, "block left {sp} values");
        sp -= 1;
        Ok(std::mem::replace(&mut stack[sp], Cow::Borrowed(&NULL)))
    }

    /// Evaluate this expression over a whole batch of records in one
    /// pass (DESIGN.md D15).
    ///
    /// Block-at-a-time with a **selection vector**: each bytecode block
    /// runs over every still-live record before the next block starts,
    /// so the per-instruction dispatch cost is paid once per block per
    /// batch instead of once per instruction per record. Records whose
    /// conjunction accumulator becomes definite `FALSE` (or whose block
    /// errored) drop out of the selection, exactly mirroring the
    /// short-circuit in per-event evaluation. Blocks with control flow
    /// (CASE, IN) diverge per record and take a record-at-a-time
    /// fallback through [`run_block`](Self::run_block) — semantics, not
    /// speed, are the invariant there.
    ///
    /// `out[i]` is byte-identical to `self.eval(get(&items[i]))` for
    /// every `i` — same values, same 3VL, same error and error order —
    /// which `tests/prop_batch_eval.rs` asserts differentially. Operand
    /// slots hold owned [`Value`]s (scalar copies; `Arc` bumps for
    /// strings), so `scratch` is reusable across batches of any
    /// lifetime and the steady state allocates nothing per event
    /// (asserted by `tests/alloc_free.rs`).
    pub fn eval_batch<'s, T, F>(
        &'s self,
        items: &'s [T],
        get: F,
        scratch: &mut BatchScratch,
        out: &mut Vec<Result<Value>>,
    ) where
        F: Fn(&'s T) -> &'s Record,
    {
        let n = items.len();
        out.clear();
        out.extend((0..n).map(|_| Ok(Value::Null)));
        if n == 0 {
            return;
        }
        BATCHES_TOTAL.fetch_add(1, Ordering::Relaxed);
        BATCHED_RECORDS_TOTAL.fetch_add(n as u64, Ordering::Relaxed);

        let mut live = std::mem::take(&mut scratch.live);
        let mut next = std::mem::take(&mut scratch.next);
        let mut acc = std::mem::take(&mut scratch.acc);
        let mut stack = std::mem::take(&mut scratch.stack);
        let mut dead = std::mem::take(&mut scratch.dead);
        live.clear();
        live.extend(0..n as u32);
        acc.clear();
        acc.resize(n, Value::Null);

        let feedback = self.feedback.load(Ordering::Relaxed);
        // Fallback operand stack for control-flow blocks; one (lazy)
        // allocation per call, shared by every record in the batch.
        let mut cow_stack: Vec<Cow<'s, Value>> = Vec::new();

        for (bi, block) in self.blocks.iter().enumerate() {
            if live.is_empty() {
                break;
            }
            let nlive = live.len();
            dead.clear();
            dead.resize(nlive, false);
            // Result slot for live position `p` is `stack[p * stride]`.
            // The stack grows but is never cleared: straight-line
            // discipline writes every slot before reading it, so stale
            // values from earlier batches are unobservable (and bounded
            // by the largest batch seen).
            let stride = if block.straight {
                let stride = block.max_stack.max(1);
                let need = nlive * stride;
                if stack.len() < need {
                    stack.resize(need, Value::Null);
                }
                self.run_block_batch(block, items, &get, &live, &mut dead, &mut stack, stride, out);
                stride
            } else {
                if cow_stack.len() < self.max_stack {
                    cow_stack.resize(self.max_stack, Cow::Borrowed(&NULL));
                }
                if stack.len() < nlive {
                    stack.resize(nlive, Value::Null);
                }
                for (p, &ri) in live.iter().enumerate() {
                    let record = get(&items[ri as usize]);
                    match self.run_block(block, record, &mut cow_stack) {
                        Ok(v) => stack[p] = v.into_owned(),
                        Err(e) => {
                            dead[p] = true;
                            out[ri as usize] = Err(e);
                        }
                    }
                }
                1
            };

            // Fold block results into the conjunction accumulator; the
            // Kleene AND short-circuits on FALSE only, as in
            // `eval_blocks`.
            let mut evals = 0u64;
            let mut passes = 0u64;
            next.clear();
            for (p, &ri) in live.iter().enumerate() {
                if dead[p] {
                    continue;
                }
                let v = std::mem::replace(&mut stack[p * stride], Value::Null);
                evals += 1;
                if v.as_bool() != Some(false) {
                    passes += 1;
                }
                let ri = ri as usize;
                let a = if bi == 0 { v } else { three_and(&acc[ri], &v) };
                if a.as_bool() == Some(false) {
                    out[ri] = Ok(a);
                } else {
                    acc[ri] = a;
                    next.push(ri as u32);
                }
            }
            if feedback {
                block.evals.fetch_add(evals, Ordering::Relaxed);
                block.passes.fetch_add(passes, Ordering::Relaxed);
            }
            std::mem::swap(&mut live, &mut next);
        }
        for &ri in &live {
            let ri = ri as usize;
            out[ri] = Ok(std::mem::replace(&mut acc[ri], Value::Null));
        }

        scratch.live = live;
        scratch.next = next;
        scratch.acc = acc;
        scratch.stack = stack;
        scratch.dead = dead;
    }

    /// Predicate form of [`eval_batch`](Self::eval_batch): `out[i]`
    /// matches `self.matches(get(&items[i]))` exactly, and
    /// [`BatchScratch::selection`] afterwards holds the indices of
    /// matching records (the selection vector downstream stages iterate
    /// instead of re-touching every record).
    ///
    /// A predicate whose every conjunct is one fused compare (`px >
    /// 185.0`, `qty BETWEEN 1 AND 9 AND sym = 'IBM'`) skips the generic
    /// VM: each record runs its conjuncts in block order straight into a
    /// three-valued verdict, with the same errors, short-circuit and
    /// feedback counters (`tests/prop_verdicts.rs`). Every other shape
    /// goes through [`eval_batch`](Self::eval_batch).
    pub fn matches_batch<'s, T, F>(
        &'s self,
        items: &'s [T],
        get: F,
        scratch: &mut BatchScratch,
        out: &mut Vec<Result<bool>>,
    ) where
        F: Fn(&'s T) -> &'s Record,
    {
        if self.compares {
            self.compare_batch(items, get, scratch, out);
            return;
        }
        let mut vals = std::mem::take(&mut scratch.vals);
        self.eval_batch(items, get, scratch, &mut vals);
        out.clear();
        scratch.sel.clear();
        for (i, r) in vals.drain(..).enumerate() {
            out.push(match r {
                Ok(v) => {
                    let hit = v.as_bool().unwrap_or(false);
                    if hit {
                        scratch.sel.push(i as u32);
                    }
                    Ok(hit)
                }
                Err(e) => Err(e),
            });
        }
        scratch.vals = vals;
    }

    /// [`matches_batch`](Self::matches_batch) for a predicate made only of
    /// fused compares: record at a time, conjuncts in block order, the
    /// Kleene AND short-circuiting on FALSE as in `eval_blocks`.
    fn compare_batch<'s, T, F>(
        &'s self,
        items: &'s [T],
        get: F,
        scratch: &mut BatchScratch,
        out: &mut Vec<Result<bool>>,
    ) where
        F: Fn(&'s T) -> &'s Record,
    {
        out.clear();
        scratch.sel.clear();
        if items.is_empty() {
            return;
        }
        BATCHES_TOTAL.fetch_add(1, Ordering::Relaxed);
        BATCHED_RECORDS_TOTAL.fetch_add(items.len() as u64, Ordering::Relaxed);
        let feedback = self.feedback.load(Ordering::Relaxed);
        // Per block (evals, passes), added to its counters once per batch.
        let tally = &mut scratch.tally;
        tally.clear();
        if feedback {
            tally.resize(self.blocks.len(), (0, 0));
        }
        for (i, item) in items.iter().enumerate() {
            let record = get(item);
            let mut acc = Some(true);
            let mut failed = None;
            for (b, block) in self.blocks.iter().enumerate() {
                let v = match self.compare(&block.insts[0], record) {
                    Ok(v) => v,
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                };
                if feedback {
                    tally[b].0 += 1;
                    tally[b].1 += u64::from(v != Some(false));
                }
                acc = match (acc, v) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                };
                if acc == Some(false) {
                    break;
                }
            }
            out.push(match failed {
                Some(e) => Err(e),
                None => {
                    let hit = acc == Some(true);
                    if hit {
                        scratch.sel.push(i as u32);
                    }
                    Ok(hit)
                }
            });
        }
        for (block, &(evals, passes)) in self.blocks.iter().zip(tally.iter()) {
            block.evals.fetch_add(evals, Ordering::Relaxed);
            block.passes.fetch_add(passes, Ordering::Relaxed);
        }
    }

    /// One fused compare on `record`, three-valued (`None` is NULL), with
    /// `run_block`'s result and error. Numeric operands compare as
    /// [`Value::sql_cmp`] does, without building a `Value`.
    #[inline]
    fn compare(&self, inst: &Inst, record: &Record) -> Result<Option<bool>> {
        let num = |v: &Value, k: &Value| NumConst::of(k).and_then(|k| k.cmp_value(v));
        match *inst {
            Inst::FieldCmpConst { field, konst, op } => {
                let v = record.get(field as usize).unwrap_or(&NULL);
                let k = &self.consts[konst as usize];
                match num(v, k) {
                    Some(ord) => Ok(Some(ord_holds(ord, op))),
                    None => three_cmp(v, k, op).map(|r| r.as_bool()),
                }
            }
            Inst::FieldBetweenConst {
                field,
                lo,
                hi,
                negated,
            } => {
                let v = record.get(field as usize).unwrap_or(&NULL);
                let (lo, hi) = (&self.consts[lo as usize], &self.consts[hi as usize]);
                if let (Some(ge), Some(le)) = (num(v, lo), num(v, hi)) {
                    let inside = ge != std::cmp::Ordering::Less && le != std::cmp::Ordering::Greater;
                    return Ok(Some(inside != negated));
                }
                // Same order as `Between`: v ≥ lo raises first.
                let ge = three_cmp(v, lo, BinaryOp::Ge)?;
                let le = three_cmp(v, hi, BinaryOp::Le)?;
                Ok(three_negate(&three_and(&ge, &le), negated).as_bool())
            }
            _ => unreachable!("not a fused compare"),
        }
    }

    /// The vectorized interpreter for a straight-line block: one match
    /// per instruction, then a tight loop over the live records — the
    /// dispatch amortization the batch path exists for. Stack discipline
    /// is uniform across records (no branches), so a single `sp` serves
    /// the whole batch; a record that errors mid-block is marked dead
    /// and skipped by the remaining instructions (its error is already
    /// in `out`, at exactly the instruction per-event evaluation would
    /// have raised it).
    #[allow(clippy::too_many_arguments)]
    fn run_block_batch<'s, T, F>(
        &'s self,
        block: &Block,
        items: &'s [T],
        get: &F,
        live: &[u32],
        dead: &mut [bool],
        stack: &mut [Value],
        stride: usize,
        out: &mut [Result<Value>],
    ) where
        F: Fn(&'s T) -> &'s Record,
    {
        /// Iterate live, non-dead records: `$p` is the live position
        /// (stack base `$p * stride`), `$ri` the batch index.
        macro_rules! each {
            (|$p:ident, $ri:ident| $body:expr) => {
                for ($p, &$ri) in live.iter().enumerate() {
                    if dead[$p] {
                        continue;
                    }
                    let $ri = $ri as usize;
                    $body
                }
            };
        }
        /// Fold a fallible per-record result into the stack slot `$dst`,
        /// killing the record on error.
        macro_rules! fallible {
            ($p:ident, $ri:ident, $dst:expr, $res:expr) => {
                match $res {
                    Ok(v) => $dst = v,
                    Err(e) => {
                        dead[$p] = true;
                        out[$ri] = Err(e);
                    }
                }
            };
        }
        let mut sp = 0usize;
        for inst in &block.insts {
            match inst {
                Inst::Const(i) => {
                    let c = &self.consts[*i as usize];
                    each!(|p, _ri| stack[p * stride + sp] = c.clone());
                    sp += 1;
                }
                Inst::Field(i) => {
                    each!(|p, ri| {
                        let record = get(&items[ri]);
                        stack[p * stride + sp] =
                            record.get(*i as usize).cloned().unwrap_or(Value::Null);
                    });
                    sp += 1;
                }
                Inst::Not => {
                    each!(|p, ri| {
                        let b = p * stride;
                        fallible!(p, ri, stack[b + sp - 1], not_value(&stack[b + sp - 1]));
                    });
                }
                Inst::Neg => {
                    each!(|p, ri| {
                        let b = p * stride;
                        fallible!(p, ri, stack[b + sp - 1], neg_value(&stack[b + sp - 1]));
                    });
                }
                Inst::IsNull { negated } => {
                    each!(|p, _ri| {
                        let b = p * stride;
                        stack[b + sp - 1] = Value::Bool(stack[b + sp - 1].is_null() != *negated);
                    });
                }
                Inst::Cmp(op) => {
                    each!(|p, ri| {
                        let b = p * stride;
                        fallible!(
                            p,
                            ri,
                            stack[b + sp - 2],
                            three_cmp(&stack[b + sp - 2], &stack[b + sp - 1], *op)
                        );
                    });
                    sp -= 1;
                }
                Inst::Arith(op) => {
                    each!(|p, ri| {
                        let b = p * stride;
                        fallible!(
                            p,
                            ri,
                            stack[b + sp - 2],
                            arith(*op, &stack[b + sp - 2], &stack[b + sp - 1])
                        );
                    });
                    sp -= 1;
                }
                Inst::And => {
                    each!(|p, _ri| {
                        let b = p * stride;
                        stack[b + sp - 2] = three_and(&stack[b + sp - 2], &stack[b + sp - 1]);
                    });
                    sp -= 1;
                }
                Inst::Or => {
                    each!(|p, _ri| {
                        let b = p * stride;
                        stack[b + sp - 2] = three_or(&stack[b + sp - 2], &stack[b + sp - 1]);
                    });
                    sp -= 1;
                }
                Inst::Pop => {
                    sp -= 1;
                }
                Inst::Between { negated } => {
                    // Same evaluation order as `run_block`: v ≥ lo first,
                    // so an error there masks one in v ≤ hi.
                    each!(|p, ri| {
                        let b = p * stride;
                        let ge = three_cmp(&stack[b + sp - 3], &stack[b + sp - 2], BinaryOp::Ge);
                        match ge {
                            Ok(ge) => {
                                let le =
                                    three_cmp(&stack[b + sp - 3], &stack[b + sp - 1], BinaryOp::Le);
                                fallible!(
                                    p,
                                    ri,
                                    stack[b + sp - 3],
                                    le.map(|le| three_negate(&three_and(&ge, &le), *negated))
                                );
                            }
                            Err(e) => {
                                dead[p] = true;
                                out[ri] = Err(e);
                            }
                        }
                    });
                    sp -= 2;
                }
                Inst::Like { negated } => {
                    each!(|p, ri| {
                        let b = p * stride;
                        fallible!(
                            p,
                            ri,
                            stack[b + sp - 2],
                            like_values(&stack[b + sp - 2], &stack[b + sp - 1], *negated)
                        );
                    });
                    sp -= 1;
                }
                Inst::LikeConst {
                    pat,
                    matcher,
                    negated,
                } => {
                    each!(|p, ri| {
                        let b = p * stride;
                        let slot = &mut stack[b + sp - 1];
                        match slot.as_str() {
                            Some(s) => *slot = Value::Bool(matcher.matches(s) != *negated),
                            None if slot.is_null() => *slot = Value::Null,
                            None => {
                                dead[p] = true;
                                out[ri] = Err(Error::Type(format!(
                                    "LIKE applied to {} / {}",
                                    slot, &self.consts[*pat as usize]
                                )));
                            }
                        }
                    });
                }
                Inst::Call { func, argc } => {
                    let argc = *argc as usize;
                    each!(|p, ri| {
                        let b = p * stride;
                        let res = ARG_SCRATCH.with(|cell| {
                            let mut arg_scratch = cell.borrow_mut();
                            arg_scratch.clear();
                            arg_scratch.extend_from_slice(&stack[b + sp - argc..b + sp]);
                            (func.call)(&arg_scratch)
                        });
                        fallible!(p, ri, stack[b + sp - argc], res);
                    });
                    sp -= argc;
                    sp += 1;
                }
                Inst::InFinish { negated } => {
                    each!(|p, _ri| {
                        let b = p * stride;
                        let saw = stack[b + sp - 1].as_bool() == Some(true);
                        stack[b + sp - 2] =
                            if saw { Value::Null } else { Value::Bool(*negated) };
                    });
                    sp -= 1;
                }
                Inst::FieldCmpConst { field, konst, op } => {
                    let konst = &self.consts[*konst as usize];
                    // Numeric constants take a typed path: the constant's
                    // type is dispatched once per batch, so the loop
                    // compares scalars directly. Promotions mirror
                    // `Value::sql_cmp` exactly; anything non-numeric and
                    // non-null falls back to `three_cmp` for identical
                    // error text.
                    match NumConst::of(konst) {
                        Some(k) => {
                            each!(|p, ri| {
                                let record = get(&items[ri]);
                                let v = record.get(*field as usize).unwrap_or(&NULL);
                                match k.cmp_value(v) {
                                    Some(ord) => {
                                        stack[p * stride + sp] = Value::Bool(ord_holds(ord, *op));
                                    }
                                    None if v.is_null() => {
                                        stack[p * stride + sp] = Value::Null;
                                    }
                                    None => fallible!(
                                        p,
                                        ri,
                                        stack[p * stride + sp],
                                        three_cmp(v, konst, *op)
                                    ),
                                }
                            });
                        }
                        None => {
                            each!(|p, ri| {
                                let record = get(&items[ri]);
                                let v = record.get(*field as usize).unwrap_or(&NULL);
                                fallible!(p, ri, stack[p * stride + sp], three_cmp(v, konst, *op));
                            });
                        }
                    }
                    sp += 1;
                }
                Inst::FieldBetweenConst {
                    field,
                    lo,
                    hi,
                    negated,
                } => {
                    let lo = &self.consts[*lo as usize];
                    let hi = &self.consts[*hi as usize];
                    // Both bounds numeric → typed path (see FieldCmpConst);
                    // a null value stays NULL, a non-numeric one falls
                    // back for the exact per-event error (v ≥ lo raises
                    // first, masking v ≤ hi, as in `run_block`).
                    match (NumConst::of(lo), NumConst::of(hi)) {
                        (Some(klo), Some(khi)) => {
                            each!(|p, ri| {
                                let record = get(&items[ri]);
                                let v = record.get(*field as usize).unwrap_or(&NULL);
                                match (klo.cmp_value(v), khi.cmp_value(v)) {
                                    (Some(ge), Some(le)) => {
                                        let inside = ge != std::cmp::Ordering::Less
                                            && le != std::cmp::Ordering::Greater;
                                        stack[p * stride + sp] =
                                            Value::Bool(inside != *negated);
                                    }
                                    _ if v.is_null() => {
                                        stack[p * stride + sp] = Value::Null;
                                    }
                                    _ => {
                                        let e = three_cmp(v, lo, BinaryOp::Ge)
                                            .expect_err("non-numeric non-null vs numeric");
                                        dead[p] = true;
                                        out[ri] = Err(e);
                                    }
                                }
                            });
                        }
                        _ => {
                            each!(|p, ri| {
                                let record = get(&items[ri]);
                                let v = record.get(*field as usize).unwrap_or(&NULL);
                                match three_cmp(v, lo, BinaryOp::Ge) {
                                    Ok(ge) => fallible!(
                                        p,
                                        ri,
                                        stack[p * stride + sp],
                                        three_cmp(v, hi, BinaryOp::Le)
                                            .map(|le| three_negate(&three_and(&ge, &le), *negated))
                                    ),
                                    Err(e) => {
                                        dead[p] = true;
                                        out[ri] = Err(e);
                                    }
                                }
                            });
                        }
                    }
                    sp += 1;
                }
                Inst::Jump(_)
                | Inst::JumpIfFalse(_)
                | Inst::JumpIfTrue(_)
                | Inst::JumpIfNull(_)
                | Inst::BranchNotTrue(_)
                | Inst::CaseNeJump(_)
                | Inst::InCmp { .. } => {
                    unreachable!("control flow in straight-line block")
                }
            }
        }
        debug_assert_eq!(sp, 1, "block left {sp} values");
    }
}

/// A numeric constant with its type dispatched once per batch, so the
/// per-record loops of `FieldCmpConst` / `FieldBetweenConst` compare
/// scalars without re-matching the constant's variant.
#[derive(Clone, Copy)]
enum NumConst {
    I(i64),
    F(f64),
}

impl NumConst {
    #[inline]
    fn of(v: &Value) -> Option<NumConst> {
        match v {
            Value::Int(k) => Some(NumConst::I(*k)),
            Value::Float(k) => Some(NumConst::F(*k)),
            _ => None,
        }
    }

    /// `v` compared to the constant (`v ⋄ k`), with the same numeric
    /// promotions as [`Value::sql_cmp`]; `None` for anything non-numeric.
    #[inline]
    fn cmp_value(self, v: &Value) -> Option<std::cmp::Ordering> {
        match (v, self) {
            (Value::Int(x), NumConst::I(k)) => Some(x.cmp(&k)),
            (Value::Int(x), NumConst::F(k)) => Some((*x as f64).total_cmp(&k)),
            (Value::Float(x), NumConst::I(k)) => Some(x.total_cmp(&(k as f64))),
            (Value::Float(x), NumConst::F(k)) => Some(x.total_cmp(&k)),
            _ => None,
        }
    }
}

/// Does `ord` satisfy `op`? Mirrors the comparison table in `three_cmp`.
#[inline]
fn ord_holds(ord: std::cmp::Ordering, op: BinaryOp) -> bool {
    match op {
        BinaryOp::Eq => ord == std::cmp::Ordering::Equal,
        BinaryOp::Ne => ord != std::cmp::Ordering::Equal,
        BinaryOp::Lt => ord == std::cmp::Ordering::Less,
        BinaryOp::Le => ord != std::cmp::Ordering::Greater,
        BinaryOp::Gt => ord == std::cmp::Ordering::Greater,
        BinaryOp::Ge => ord != std::cmp::Ordering::Less,
        _ => unreachable!("non-comparison op in FieldCmpConst"),
    }
}

/// Reusable per-thread state for [`CompiledExpr::eval_batch`]: operand
/// stacks, selection vectors and the conjunction accumulator. Holding
/// one per evaluating thread and reusing it across batches keeps the
/// batch path allocation-free per event in the steady state.
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Record-major operand stacks (live position `p` at `p * stride`).
    stack: Vec<Value>,
    /// Selection vector: batch indices still live.
    live: Vec<u32>,
    /// Selection vector under construction for the next block.
    next: Vec<u32>,
    /// Per-live-position "errored in this block" flags.
    dead: Vec<bool>,
    /// Per-batch-index conjunction accumulator.
    acc: Vec<Value>,
    /// Matching indices from the last `matches_batch` call.
    sel: Vec<u32>,
    /// Value-result buffer backing `matches_batch`.
    vals: Vec<Result<Value>>,
    /// Per-block feedback tallies of the fused-compare verdict path.
    tally: Vec<(u64, u64)>,
}

impl BatchScratch {
    /// Fresh scratch (all buffers empty; they grow to batch size on
    /// first use and are reused afterwards).
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }

    /// Indices of matching records from the last
    /// [`CompiledExpr::matches_batch`] call, in record order.
    pub fn selection(&self) -> &[u32] {
        &self.sel
    }
}

thread_local! {
    /// Reusable argument buffer for `Inst::Call`.
    static ARG_SCRATCH: std::cell::RefCell<Vec<Value>> = const { std::cell::RefCell::new(Vec::new()) };
}

fn pass_rate(b: &Block) -> Option<f64> {
    let evals = b.evals.load(Ordering::Relaxed);
    if evals < FEEDBACK_MIN_EVALS {
        return None;
    }
    Some(b.passes.load(Ordering::Relaxed) as f64 / evals as f64)
}

/// Split nested top-level ANDs into a conjunct list (left-to-right).
fn flatten_and<'e>(e: &'e BoundExpr, out: &mut Vec<&'e BoundExpr>) {
    match e {
        BoundExpr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } => {
            flatten_and(left, out);
            flatten_and(right, out);
        }
        other => out.push(other),
    }
}

/// Is the subtree free of field references (and therefore constant)?
fn is_const(e: &BoundExpr) -> bool {
    match e {
        BoundExpr::Literal(_) => true,
        BoundExpr::Field(_) => false,
        BoundExpr::Unary { expr, .. } => is_const(expr),
        BoundExpr::Binary { left, right, .. } => is_const(left) && is_const(right),
        BoundExpr::IsNull { expr, .. } => is_const(expr),
        BoundExpr::Between {
            expr, low, high, ..
        } => is_const(expr) && is_const(low) && is_const(high),
        BoundExpr::InList { expr, list, .. } => is_const(expr) && list.iter().all(is_const),
        BoundExpr::Like { expr, pattern, .. } => is_const(expr) && is_const(pattern),
        BoundExpr::Func { args, .. } => args.iter().all(is_const),
        BoundExpr::Case {
            operand,
            branches,
            else_expr,
        } => {
            operand.as_deref().map(is_const).unwrap_or(true)
                && branches.iter().all(|(w, t)| is_const(w) && is_const(t))
                && else_expr.as_deref().map(is_const).unwrap_or(true)
        }
    }
}

/// Number of nodes in a subtree (fold accounting).
fn node_count(e: &BoundExpr) -> u64 {
    match e {
        BoundExpr::Literal(_) | BoundExpr::Field(_) => 1,
        BoundExpr::Unary { expr, .. } | BoundExpr::IsNull { expr, .. } => 1 + node_count(expr),
        BoundExpr::Binary { left, right, .. } => 1 + node_count(left) + node_count(right),
        BoundExpr::Between {
            expr, low, high, ..
        } => 1 + node_count(expr) + node_count(low) + node_count(high),
        BoundExpr::InList { expr, list, .. } => {
            1 + node_count(expr) + list.iter().map(node_count).sum::<u64>()
        }
        BoundExpr::Like { expr, pattern, .. } => 1 + node_count(expr) + node_count(pattern),
        BoundExpr::Func { args, .. } => 1 + args.iter().map(node_count).sum::<u64>(),
        BoundExpr::Case {
            operand,
            branches,
            else_expr,
        } => {
            1 + operand.as_deref().map(node_count).unwrap_or(0)
                + branches
                    .iter()
                    .map(|(w, t)| node_count(w) + node_count(t))
                    .sum::<u64>()
                + else_expr.as_deref().map(node_count).unwrap_or(0)
        }
    }
}

// ---- code generation ---------------------------------------------------

struct Codegen<'c> {
    consts: &'c mut Vec<Value>,
    insts: Vec<Inst>,
    /// Current operand-stack depth at this point in the program.
    depth: usize,
    max_depth: usize,
    fold: &'c mut FoldStats,
    /// Empty record for compile-time constant evaluation.
    empty: &'c Record,
}

impl Codegen<'_> {
    fn emit(&mut self, inst: Inst, pops: usize, pushes: usize) {
        debug_assert!(self.depth >= pops, "stack underflow in codegen");
        self.depth = self.depth - pops + pushes;
        self.max_depth = self.max_depth.max(self.depth);
        self.insts.push(inst);
    }

    /// Emit a placeholder jump; returns the index to patch.
    fn emit_jump(&mut self, make: fn(u32) -> Inst, pops: usize) -> usize {
        self.emit(make(u32::MAX), pops, 0);
        self.insts.len() - 1
    }

    /// Point the placeholder at `idx` to the next instruction.
    fn patch(&mut self, idx: usize) {
        let target = self.insts.len() as u32;
        match &mut self.insts[idx] {
            Inst::Jump(t)
            | Inst::JumpIfFalse(t)
            | Inst::JumpIfTrue(t)
            | Inst::JumpIfNull(t)
            | Inst::BranchNotTrue(t)
            | Inst::CaseNeJump(t)
            | Inst::InCmp { target: t, .. } => *t = target,
            other => unreachable!("patch of non-jump {other:?}"),
        }
    }

    fn intern(&mut self, v: Value) -> u32 {
        // Small pools; linear dedup is fine and keeps NaN literals
        // (which are never equal to themselves) as separate entries.
        if let Some(i) = self.consts.iter().position(|c| c == &v) {
            return i as u32;
        }
        self.consts.push(v);
        (self.consts.len() - 1) as u32
    }

    fn emit_const(&mut self, v: Value) {
        let i = self.intern(v);
        self.emit(Inst::Const(i), 0, 1);
    }

    /// Try to fold a field-free subtree into a single constant. Errors
    /// at compile time keep the subtree as code so they are raised at
    /// runtime by the interpreter-identical instruction sequence.
    fn try_fold(&mut self, e: &BoundExpr) -> bool {
        if matches!(e, BoundExpr::Literal(_)) || !is_const(e) {
            return false;
        }
        match e.eval(self.empty) {
            Ok(v) => {
                self.fold.folded_subtrees += 1;
                self.fold.folded_nodes += node_count(e).saturating_sub(1);
                self.emit_const(v);
                true
            }
            Err(_) => false,
        }
    }

    fn compile(&mut self, e: &BoundExpr) {
        if self.try_fold(e) {
            return;
        }
        match e {
            BoundExpr::Literal(v) => self.emit_const(v.clone()),
            BoundExpr::Field(i) => self.emit(Inst::Field(*i as u32), 0, 1),
            BoundExpr::Unary { op, expr } => {
                self.compile(expr);
                match op {
                    UnaryOp::Not => self.emit(Inst::Not, 1, 1),
                    UnaryOp::Neg => self.emit(Inst::Neg, 1, 1),
                }
            }
            BoundExpr::Binary { op, left, right } => match op {
                BinaryOp::And => {
                    self.compile(left);
                    let j = self.emit_jump(Inst::JumpIfFalse, 0);
                    self.compile(right);
                    self.emit(Inst::And, 2, 1);
                    self.patch(j);
                }
                BinaryOp::Or => {
                    self.compile(left);
                    let j = self.emit_jump(Inst::JumpIfTrue, 0);
                    self.compile(right);
                    self.emit(Inst::Or, 2, 1);
                    self.patch(j);
                }
                _ if op.is_comparison() => {
                    self.compile(left);
                    self.compile(right);
                    self.emit(Inst::Cmp(*op), 2, 1);
                }
                _ => {
                    self.compile(left);
                    self.compile(right);
                    self.emit(Inst::Arith(*op), 2, 1);
                }
            },
            BoundExpr::IsNull { expr, negated } => {
                self.compile(expr);
                self.emit(Inst::IsNull { negated: *negated }, 1, 1);
            }
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                self.compile(expr);
                self.compile(low);
                self.compile(high);
                self.emit(Inst::Between { negated: *negated }, 3, 1);
            }
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                self.compile(expr);
                // A NULL tested value yields NULL without evaluating any
                // list item (it is already on the stack as the result).
                let j_null = self.emit_jump(Inst::JumpIfNull, 0);
                self.emit_const(Value::Bool(false)); // saw_null flag
                let mut hits = Vec::with_capacity(list.len());
                for item in list {
                    self.compile(item);
                    // Net effect on the fallthrough path: pop the item.
                    self.emit(
                        Inst::InCmp {
                            negated: *negated,
                            target: u32::MAX,
                        },
                        1,
                        0,
                    );
                    hits.push(self.insts.len() - 1);
                }
                self.emit(Inst::InFinish { negated: *negated }, 2, 1);
                for h in hits {
                    self.patch(h);
                }
                self.patch(j_null);
            }
            BoundExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                self.compile(expr);
                let const_pat = if is_const(pattern) {
                    pattern.eval(self.empty).ok()
                } else {
                    None
                };
                match const_pat {
                    Some(Value::Str(s)) => {
                        let matcher = LikePattern::new(&s);
                        let pat = self.intern(Value::Str(s));
                        self.fold.like_precompiled += 1;
                        self.emit(
                            Inst::LikeConst {
                                pat,
                                matcher,
                                negated: *negated,
                            },
                            1,
                            1,
                        );
                    }
                    // Non-string constant patterns (e.g. NULL) and
                    // dynamic patterns take the generic two-operand path,
                    // which reproduces interpreter NULL/error behavior.
                    _ => {
                        self.compile(pattern);
                        self.emit(Inst::Like { negated: *negated }, 2, 1);
                    }
                }
            }
            BoundExpr::Func { func, args } => {
                for a in args {
                    self.compile(a);
                }
                self.emit(
                    Inst::Call {
                        func,
                        argc: args.len() as u32,
                    },
                    args.len(),
                    1,
                );
            }
            BoundExpr::Case {
                operand,
                branches,
                else_expr,
            } => match operand {
                None => {
                    // Searched CASE.
                    let base = self.depth;
                    let mut ends = Vec::with_capacity(branches.len());
                    for (w, t) in branches {
                        self.compile(w);
                        let j_next = self.emit_jump(Inst::BranchNotTrue, 1);
                        self.compile(t);
                        ends.push(self.emit_jump(Inst::Jump, 0));
                        self.patch(j_next);
                        self.depth = base; // branch-not-taken path
                    }
                    match else_expr {
                        Some(e) => self.compile(e),
                        None => self.emit_const(Value::Null),
                    }
                    for j in ends {
                        self.patch(j);
                    }
                    self.depth = base + 1;
                }
                Some(op) => {
                    // Operand CASE: scrutinee stays on the stack until a
                    // branch matches or the else arm runs.
                    self.compile(op);
                    let base = self.depth; // includes the scrutinee
                    let mut ends = Vec::with_capacity(branches.len());
                    for (w, t) in branches {
                        self.compile(w);
                        let j_next = self.emit_jump(Inst::CaseNeJump, 1);
                        self.emit(Inst::Pop, 1, 0); // drop the scrutinee
                        self.compile(t);
                        ends.push(self.emit_jump(Inst::Jump, 0));
                        self.patch(j_next);
                        self.depth = base; // not-taken: scrutinee remains
                    }
                    self.emit(Inst::Pop, 1, 0);
                    match else_expr {
                        Some(e) => self.compile(e),
                        None => self.emit_const(Value::Null),
                    }
                    for j in ends {
                        self.patch(j);
                    }
                    self.depth = base; // one result slot replaces scrutinee
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use evdb_types::{DataType, FieldDef, Schema};

    fn schema() -> std::sync::Arc<Schema> {
        Schema::new(vec![
            FieldDef::nullable("a", DataType::Int),
            FieldDef::nullable("f", DataType::Float),
            FieldDef::nullable("s", DataType::Str),
            FieldDef::nullable("b", DataType::Bool),
        ])
        .unwrap()
    }

    fn compile(src: &str) -> (BoundExpr, CompiledExpr) {
        let bound = parse(src).unwrap().bind(&schema()).unwrap();
        let compiled = CompiledExpr::compile(&bound);
        (bound, compiled)
    }

    fn record(a: i64, s: &str) -> Record {
        Record::from_iter([
            Value::Int(a),
            Value::Float(a as f64 / 2.0),
            Value::from(s),
            Value::Bool(a % 2 == 0),
        ])
    }

    fn assert_agree(src: &str, rec: &Record) {
        let (bound, compiled) = compile(src);
        let i = bound.eval(rec);
        let c = compiled.eval(rec);
        match (&i, &c) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "value mismatch for {src}"),
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "error mismatch for {src}")
            }
            _ => panic!("divergence for {src}: interp={i:?} compiled={c:?}"),
        }
    }

    #[test]
    fn agrees_with_interpreter_on_fixtures() {
        let exprs = [
            "a + 1",
            "a * 2 - f",
            "a / 0",
            "a % 0",
            "-a",
            "NOT b",
            "a > 5",
            "a > 5 AND s LIKE 'ab%'",
            "a > 5 OR s LIKE 'zz%'",
            "a BETWEEN 2 AND 8",
            "a NOT BETWEEN 2 AND 8",
            "a IN (1, 2, 3)",
            "a NOT IN (1, 2, 3)",
            "a IN (1, NULL, 3)",
            "s LIKE '%b%'",
            "s NOT LIKE '_x%'",
            "s LIKE NULL",
            "s IS NULL",
            "s IS NOT NULL",
            "upper(s) = 'ABC'",
            "length(s) + a",
            "coalesce(NULL, a, 99)",
            "CASE WHEN a > 5 THEN 'big' ELSE 'small' END",
            "CASE a WHEN 1 THEN 'one' WHEN 2 THEN 'two' END",
            "CASE WHEN a > 100 THEN 1 END",
            "a > 1 AND a > 2 AND a > 3 AND s LIKE 'a%'",
            "(a > 1 OR b) AND (f < 100 OR s = 'x')",
            "abs(a - 10) < 3",
            "a BETWEEN 1 + 1 AND 10 * 2",
        ];
        let records = [
            record(1, "abc"),
            record(6, "abx"),
            record(10, "zzz"),
            Record::from_iter([Value::Null, Value::Null, Value::Null, Value::Null]),
        ];
        for src in exprs {
            for rec in &records {
                assert_agree(src, rec);
            }
        }
    }

    #[test]
    fn agrees_on_errors() {
        let schema = Schema::of(&[("a", DataType::Int)]);
        let rec = Record::from_iter([Value::Int(i64::MAX)]);
        for src in ["a + 1", "a * 2", "-(-a - 1)", "abs(a) + a"] {
            let bound = parse(src).unwrap().bind(&schema).unwrap();
            let compiled = CompiledExpr::compile(&bound);
            let i = bound.eval(&rec).unwrap_err().to_string();
            let c = compiled.eval(&rec).unwrap_err().to_string();
            assert_eq!(i, c, "error mismatch for {src}");
        }
    }

    #[test]
    fn folds_constant_subtrees() {
        let (_, c) = compile("a BETWEEN 1 + 1 AND 10 * 2");
        assert!(c.is_computation_free(), "BETWEEN bounds must fold");
        assert_eq!(c.fold_stats().folded_subtrees, 2);
        // upper('x') is field-free: folds to a constant.
        let (_, c) = compile("s = upper('x')");
        assert!(c.is_computation_free());
        // A fully constant predicate folds to a single Const.
        let (_, c) = compile("1 + 2 = 3");
        assert_eq!(c.inst_count(), 1);
    }

    #[test]
    fn erroring_constants_stay_as_code() {
        // 9223372036854775807 + 1 overflows; folding must not hide the
        // error nor raise it at compile time.
        let (bound, c) = compile("a > 0 AND 9223372036854775807 + 1 > 0");
        assert!(!c.is_computation_free());
        let rec = record(1, "x");
        assert_eq!(
            bound.eval(&rec).unwrap_err().to_string(),
            c.eval(&rec).unwrap_err().to_string()
        );
        // …and short-circuit still applies when the first conjunct fails.
        let rec0 = record(-1, "x");
        assert_eq!(bound.eval(&rec0).unwrap(), c.eval(&rec0).unwrap());
        assert_eq!(c.eval(&rec0).unwrap(), Value::Bool(false));
    }

    #[test]
    fn like_patterns_precompile() {
        let (_, c) = compile("s LIKE 'ab%'");
        assert_eq!(c.fold_stats().like_precompiled, 1);
        // Dynamic pattern: no precompile.
        let (_, c) = compile("s LIKE s");
        assert_eq!(c.fold_stats().like_precompiled, 0);
    }

    #[test]
    fn reorders_cheap_conjuncts_first() {
        // LIKE conjunct written first must still run after the cheap
        // numeric comparison (both infallible → same run).
        let (_, c) = compile("s LIKE '%needle%' AND a > 5");
        c.enable_feedback();
        // A record failing the numeric test must never evaluate LIKE.
        for _ in 0..10 {
            assert!(!c.matches(&record(1, "haystack")).unwrap());
        }
        let fb = c.block_feedback();
        assert_eq!(fb.len(), 2);
        assert_eq!(fb[0], (10, 0), "cheap numeric block runs first");
        assert_eq!(fb[1], (0, 0), "LIKE block short-circuited away");
    }

    #[test]
    fn fallible_conjuncts_are_barriers() {
        // `a + 1 > 0` can overflow ⇒ must not move relative to others.
        let (bound, c) = compile("a + 1 > 0 AND s LIKE 'x%'");
        let rec = Record::from_iter([
            Value::Int(i64::MAX),
            Value::Null,
            Value::from("xy"),
            Value::Null,
        ]);
        assert_eq!(
            bound.eval(&rec).unwrap_err().to_string(),
            c.eval(&rec).unwrap_err().to_string()
        );
    }

    #[test]
    fn resequence_uses_observed_pass_rates() {
        // Two cheap comparisons, equal static cost: feedback flips order.
        let (_, mut c) = compile("a < 100 AND a > 5");
        c.enable_feedback();
        // a<100 passes always, a>5 fails always → a>5 is more selective.
        for i in 0..100 {
            let _ = c.matches(&record(i % 5, "x"));
        }
        c.resequence();
        let fb = c.block_feedback();
        // After resequence the most selective block is first.
        let first_pass_rate = fb[0].1 as f64 / fb[0].0 as f64;
        let second_pass_rate = fb[1].1 as f64 / fb[1].0 as f64;
        assert!(first_pass_rate <= second_pass_rate);
    }

    #[test]
    fn matches_and_stats() {
        let before = compiler_stats();
        let (_, c) = compile("a > 5 AND s LIKE 'ab%'");
        let after = compiler_stats();
        // Process-wide counters: sibling tests compile concurrently.
        assert!(after.compiled_total > before.compiled_total);
        assert!(after.like_precompiled > before.like_precompiled);
        assert!(c.matches(&record(6, "abx")).unwrap());
        assert!(!c.matches(&record(6, "zzz")).unwrap());
        assert!(!c.matches(&record(1, "abx")).unwrap());
        // NULL predicate is a non-match.
        let nulls = Record::from_iter([Value::Null, Value::Null, Value::Null, Value::Null]);
        assert!(!c.matches(&nulls).unwrap());
    }

    #[test]
    fn deep_expressions_use_heap_stack() {
        // Build a right-nested arithmetic chain deeper than the inline
        // stack: a + (1 + (2 + (…))).
        let mut src = String::from("a");
        for _ in 0..40 {
            src = format!("a + ({src})");
        }
        let (bound, c) = compile(&src);
        let rec = record(3, "x");
        assert_eq!(bound.eval(&rec).unwrap(), c.eval(&rec).unwrap());
    }

    #[test]
    fn compiled_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledExpr>();
    }

    #[test]
    fn peephole_fuses_field_const_patterns() {
        let s = schema();
        // Each conjunct collapses to a single fused instruction:
        // FieldCmpConst ×2 (one mirrored) + FieldBetweenConst.
        let bound = parse("a > 10 AND 5 < a AND a BETWEEN 1 AND 9")
            .unwrap()
            .bind_predicate(&s)
            .unwrap();
        let c = CompiledExpr::compile(&bound);
        assert_eq!(c.block_count(), 3);
        assert_eq!(c.inst_count(), 3, "expected full fusion, got {c:?}");
        // Fused and unfused programs agree, including on NULL.
        for v in [Value::Int(7), Value::Int(11), Value::Int(3), Value::Null] {
            let r = Record::new(vec![
                v,
                Value::Float(0.0),
                Value::from(""),
                Value::Bool(false),
            ]);
            assert_eq!(c.matches(&r).unwrap(), bound.matches(&r).unwrap());
        }
        // Control flow disables fusion (jump targets must stay valid).
        let ored = parse("a > 10 OR a < 2").unwrap().bind_predicate(&s).unwrap();
        assert!(CompiledExpr::compile(&ored).inst_count() > 3);
    }

    #[test]
    fn non_boolean_projection_exprs_compile() {
        let (bound, c) = compile("a * 2 + length(s)");
        let rec = record(4, "abc");
        assert_eq!(bound.eval(&rec).unwrap(), c.eval(&rec).unwrap());
        assert_eq!(c.eval(&rec).unwrap(), Value::Int(11));
    }
}
