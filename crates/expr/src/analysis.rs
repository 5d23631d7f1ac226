//! Constraint analysis: decompose a predicate into **indexable atoms**
//! plus a **residual**.
//!
//! This is the enabling analysis for the paper's scalability claim about
//! "large rule sets" (§2.2.c.iv.2.a): a matcher that can pull
//! `field = const` and `field relop const` atoms out of every rule can
//! index rules by attribute value and touch only candidate rules per
//! event, instead of evaluating all of them.
//!
//! `analyze` splits the top-level conjunction of a predicate:
//!
//! * `field = literal`  → [`Constraint::Eq`]
//! * `field < literal` (and `<= > >=`, either operand order, plus
//!   `BETWEEN`) → [`Constraint::Range`]
//! * `field IN (literals…)` → [`Constraint::In`]
//! * `field LIKE 'abc%…'` → the string range its literal prefix implies,
//!   `['abc', 'abd')` as a [`Constraint::Range`] (a wildcard-free pattern
//!   is a [`Constraint::Eq`]) — and the LIKE *also stays in the residual*,
//!   because the range is implied by it, not equivalent to it
//! * the same four shapes over a **computed left side** — `volume % 97 = 5`,
//!   `length(sym) IN (2, 3)`, `10 < qty * 2` — → a [`KeyConstraint`] in
//!   [`ConjunctiveForm::keys`]: the non-constant expression plus the
//!   constraint on its value. Like the LIKE prefix it is implied, not
//!   equivalent (evaluating the expression can fail), so the conjunct
//!   *also stays in the residual*. Rules that share a left side differ
//!   only in the constant, which is what lets a matcher evaluate the
//!   expression once per event and hash on the result.
//! * everything else (ORs, cross-field comparisons, NOTs, `!=`…)
//!   → folded back into the residual expression.
//!
//! The decomposition is **sound, not complete**: the original predicate is
//! always equivalent to `constraints ∧ residual` (verified by proptest in
//! the rules crate) and implies every key constraint, but some index
//! opportunities inside ORs are left to the residual.

use evdb_types::Value;

use crate::ast::{BinaryOp, Expr};
use crate::typecheck::const_eval;

/// One bound of a range constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// The bounding value.
    pub value: Value,
    /// Whether the bound itself is included.
    pub inclusive: bool,
}

impl Bound {
    /// Is `v` on the inner side of this bound taken as a *lower* bound?
    /// (NULL and incomparable values never are.)
    pub fn admits_above(&self, v: &Value) -> bool {
        match v.sql_cmp(&self.value) {
            Some(std::cmp::Ordering::Greater) => true,
            Some(std::cmp::Ordering::Equal) => self.inclusive,
            _ => false,
        }
    }

    /// Is `v` on the inner side of this bound taken as an *upper* bound?
    pub fn admits_below(&self, v: &Value) -> bool {
        match v.sql_cmp(&self.value) {
            Some(std::cmp::Ordering::Less) => true,
            Some(std::cmp::Ordering::Equal) => self.inclusive,
            _ => false,
        }
    }
}

/// An indexable atomic constraint on a single field.
#[derive(Debug, Clone, PartialEq)]
pub enum Constraint {
    /// `field = value`.
    Eq {
        /// Field name.
        field: String,
        /// Required value.
        value: Value,
    },
    /// `field` within an interval (at least one side set).
    Range {
        /// Field name.
        field: String,
        /// Lower bound, if any.
        low: Option<Bound>,
        /// Upper bound, if any.
        high: Option<Bound>,
    },
    /// `field IN (values…)` — disjunction of equalities on one field.
    In {
        /// Field name.
        field: String,
        /// Allowed values (deduplicated, non-null).
        values: Vec<Value>,
    },
}

impl Constraint {
    /// The constrained field.
    pub fn field(&self) -> &str {
        match self {
            Constraint::Eq { field, .. }
            | Constraint::Range { field, .. }
            | Constraint::In { field, .. } => field,
        }
    }

    /// Does a concrete value satisfy this constraint?
    /// (`None`/NULL never satisfies.)
    pub fn accepts(&self, v: &Value) -> bool {
        if v.is_null() {
            return false;
        }
        match self {
            Constraint::Eq { value, .. } => {
                matches!(v.sql_cmp(value), Some(std::cmp::Ordering::Equal))
            }
            Constraint::Range { low, high, .. } => {
                low.as_ref().is_none_or(|b| b.admits_above(v))
                    && high.as_ref().is_none_or(|b| b.admits_below(v))
            }
            Constraint::In { values, .. } => values
                .iter()
                .any(|x| matches!(v.sql_cmp(x), Some(std::cmp::Ordering::Equal))),
        }
    }
}

/// An indexable constraint on a computed value: a top-level conjunct
/// `⟨expr⟩ ⟨op⟩ constants` whose left side is neither a bare field nor a
/// constant.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyConstraint {
    /// The left-hand expression, as parsed (no algebraic normalisation:
    /// `qty * 2` and `2 * qty` are different keys).
    pub expr: Expr,
    /// What the conjunct requires of its value. `field` holds `expr`'s
    /// canonical text, the key's identity.
    pub constraint: Constraint,
}

/// The result of [`analyze`]: indexable constraints plus what is left.
#[derive(Debug, Clone, Default)]
pub struct ConjunctiveForm {
    /// Indexable atoms on fields; the predicate implies each of them.
    pub constraints: Vec<Constraint>,
    /// Indexable atoms on computed values; implied by the predicate and
    /// still part of `residual`.
    pub keys: Vec<KeyConstraint>,
    /// Remaining predicate (`None` means "TRUE").
    pub residual: Option<Expr>,
}

impl ConjunctiveForm {
    /// True if the whole predicate was captured by constraints.
    pub fn fully_indexable(&self) -> bool {
        self.residual.is_none()
    }
}

/// Decompose `expr` (a boolean predicate) into indexable constraints and a
/// residual such that `expr ≡ AND(constraints) AND residual`.
pub fn analyze(expr: &Expr) -> ConjunctiveForm {
    let mut atoms = Vec::new();
    collect_conjuncts(expr, &mut atoms);

    let mut form = ConjunctiveForm::default();
    let mut residual_parts: Vec<Expr> = Vec::new();

    for atom in atoms {
        match extract(atom) {
            Some((Expr::Field(_), c)) => form.constraints.push(c),
            // Implied, not equivalent: what implies a constraint below
            // stays residual itself.
            Some((expr, constraint)) if !expr.referenced_fields().is_empty() => {
                form.keys.push(KeyConstraint {
                    expr: expr.clone(),
                    constraint,
                });
                residual_parts.push(atom.clone());
            }
            _ => {
                form.constraints.extend(like_prefix(atom));
                residual_parts.push(atom.clone());
            }
        }
    }
    form.residual = residual_parts.into_iter().reduce(Expr::and);
    form
}

/// Flatten nested ANDs into a conjunct list.
fn collect_conjuncts<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
    match expr {
        Expr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } => {
            collect_conjuncts(left, out);
            collect_conjuncts(right, out);
        }
        other => out.push(other),
    }
}

/// Try to read one conjunct as `target ⟨op⟩ constants`: the constrained
/// expression and the constraint on its value, named by the target's
/// text (a field's name, a key's canonical form). The target may still
/// be a constant; the caller sorts that out.
fn extract(atom: &Expr) -> Option<(&Expr, Constraint)> {
    let bound = |value, inclusive| Some(Bound { value, inclusive });
    match atom {
        Expr::Binary { op, left, right } if op.is_comparison() => {
            // Normalize to target-op-constant.
            let (target, op, value) = match const_eval(right) {
                Some(v) => (&**left, *op, v),
                None => (&**right, op.flipped(), const_eval(left)?),
            };
            if value.is_null() {
                return None; // `x = NULL` never matches; leave in residual
            }
            let field = target.to_string();
            let constraint = match op {
                BinaryOp::Eq => Constraint::Eq { field, value },
                BinaryOp::Lt | BinaryOp::Le => Constraint::Range {
                    field,
                    low: None,
                    high: bound(value, op == BinaryOp::Le),
                },
                BinaryOp::Gt | BinaryOp::Ge => Constraint::Range {
                    field,
                    low: bound(value, op == BinaryOp::Ge),
                    high: None,
                },
                // `!=` is not usefully indexable.
                _ => return None,
            };
            Some((target, constraint))
        }
        Expr::Between {
            expr,
            low,
            high,
            negated: false,
        } => {
            let lo = const_eval(low)?;
            let hi = const_eval(high)?;
            if lo.is_null() || hi.is_null() {
                return None;
            }
            let constraint = Constraint::Range {
                field: expr.to_string(),
                low: bound(lo, true),
                high: bound(hi, true),
            };
            Some((expr, constraint))
        }
        Expr::InList {
            expr,
            list,
            negated: false,
        } => {
            let mut values = Vec::with_capacity(list.len());
            for e in list {
                let v = const_eval(e)?;
                if v.is_null() {
                    return None; // NULL in list changes semantics; keep in residual
                }
                if !values.contains(&v) {
                    values.push(v);
                }
            }
            let constraint = Constraint::In {
                field: expr.to_string(),
                values,
            };
            Some((expr, constraint))
        }
        _ => None,
    }
}

/// The constraint a constant LIKE pattern implies on its field:
/// `f LIKE 'abc%…'` only matches strings in `['abc', succ('abc'))`, where
/// `succ` increments the last scalar of the literal prefix (string order
/// is scalar order, so every string with that prefix sorts inside). A
/// pattern with no wildcard is equality; an empty prefix or `NOT LIKE`
/// implies nothing. When the last scalar has no successor the range
/// keeps its lower bound only.
fn like_prefix(atom: &Expr) -> Option<Constraint> {
    let Expr::Like {
        expr,
        pattern,
        negated: false,
    } = atom
    else {
        return None;
    };
    let Expr::Field(field) = &**expr else {
        return None;
    };
    let pattern = const_eval(pattern)?;
    let pattern = pattern.as_str()?;
    let Some(wildcard) = pattern.find(['%', '_']) else {
        return Some(Constraint::Eq {
            field: field.clone(),
            value: Value::from(pattern),
        });
    };
    let prefix = &pattern[..wildcard];
    let last = prefix.chars().next_back()?;
    let stem = &prefix[..prefix.len() - last.len_utf8()];
    // `char` steps skip the surrogate gap; only `char::MAX` has no successor.
    let high = (last..=char::MAX).nth(1).map(|next| Bound {
        value: Value::from(format!("{stem}{next}")),
        inclusive: false,
    });
    Some(Constraint::Range {
        field: field.clone(),
        low: Some(Bound {
            value: Value::from(prefix),
            inclusive: true,
        }),
        high,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn form(src: &str) -> ConjunctiveForm {
        analyze(&parse(src).unwrap())
    }

    #[test]
    fn equality_and_range() {
        let f = form("sym = 'IBM' AND px > 100 AND qty <= 5");
        assert_eq!(f.constraints.len(), 3);
        assert!(f.fully_indexable());
        assert_eq!(
            f.constraints[0],
            Constraint::Eq {
                field: "sym".into(),
                value: Value::from("IBM")
            }
        );
        match &f.constraints[1] {
            Constraint::Range { field, low, high } => {
                assert_eq!(field, "px");
                assert_eq!(low.as_ref().unwrap().value, Value::Int(100));
                assert!(!low.as_ref().unwrap().inclusive);
                assert!(high.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn flipped_literal_first() {
        let f = form("100 < px");
        match &f.constraints[0] {
            Constraint::Range { low, .. } => {
                assert_eq!(low.as_ref().unwrap().value, Value::Int(100));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn between_and_in() {
        let f = form("px BETWEEN 1 AND 2 AND sym IN ('A', 'B', 'A')");
        assert!(f.fully_indexable());
        match &f.constraints[1] {
            Constraint::In { values, .. } => assert_eq!(values.len(), 2), // deduped
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn residual_catches_the_rest() {
        let f = form("sym = 'A' AND (px > 1 OR qty > 1) AND length(sym) = 1");
        assert_eq!(f.constraints.len(), 1);
        let residual = f.residual.unwrap().to_string();
        assert!(residual.contains("OR"));
        assert!(residual.contains("length"));
    }

    #[test]
    fn non_indexable_forms_stay_residual() {
        assert_eq!(form("a != 1").constraints.len(), 0);
        assert_eq!(form("a = b").constraints.len(), 0);
        assert_eq!(form("NOT a = 1").constraints.len(), 0);
        assert_eq!(form("a NOT IN (1)").constraints.len(), 0);
        assert_eq!(form("a = NULL").constraints.len(), 0);
        assert_eq!(form("a IN (1, NULL)").constraints.len(), 0);
        assert_eq!(form("abs(a) = 1").constraints.len(), 0);
    }

    fn str_bound(value: &str, inclusive: bool) -> Option<Bound> {
        Some(Bound {
            value: Value::from(value),
            inclusive,
        })
    }

    #[test]
    fn like_prefix_implies_a_string_range_and_stays_residual() {
        let f = form("sym LIKE 'S3%' AND volume % 97 = 5");
        assert_eq!(
            f.constraints,
            vec![Constraint::Range {
                field: "sym".into(),
                low: str_bound("S3", true),
                high: str_bound("S4", false),
            }]
        );
        let residual = f.residual.unwrap().to_string();
        assert!(residual.contains("LIKE"), "{residual}");
        assert!(residual.contains("97"), "{residual}");
        // `_` ends the prefix like `%` does.
        assert_eq!(
            form("sym LIKE 'ab_d%'").constraints,
            vec![Constraint::Range {
                field: "sym".into(),
                low: str_bound("ab", true),
                high: str_bound("ac", false),
            }]
        );
    }

    #[test]
    fn like_prefix_successor_edges() {
        let range = |src: &str| match form(src).constraints.as_slice() {
            [Constraint::Range { low, high, .. }] => (low.clone(), high.clone()),
            other => panic!("{src}: {other:?}"),
        };
        // Multi-byte last scalar: the successor is the next scalar, not
        // the next byte.
        assert_eq!(
            range("s LIKE 'caf\u{e9}%'"),
            (str_bound("caf\u{e9}", true), str_bound("caf\u{ea}", false))
        );
        // The successor steps over the surrogate gap.
        assert_eq!(
            range("s LIKE 'x\u{d7ff}%'"),
            (str_bound("x\u{d7ff}", true), str_bound("x\u{e000}", false))
        );
        // No successor: lower bound only.
        assert_eq!(
            range("s LIKE 'a\u{10ffff}%'"),
            (str_bound("a\u{10ffff}", true), None)
        );
        // Every string the pattern matches is inside the range.
        let c = &form("s LIKE 'S1%'").constraints[0];
        for s in ["S1", "S10", "S1\u{10ffff}z"] {
            assert!(c.accepts(&Value::from(s)), "{s}");
        }
        for s in ["S", "S0z", "S2", "T1"] {
            assert!(!c.accepts(&Value::from(s)), "{s}");
        }
    }

    #[test]
    fn like_without_a_usable_prefix() {
        // Empty prefix, negation, non-constant pattern: nothing implied.
        for src in [
            "s LIKE '%x'",
            "s LIKE '_1%'",
            "s NOT LIKE 'S1%'",
            "s LIKE t",
            "lower(s) LIKE 'a%'",
        ] {
            let f = form(src);
            assert!(f.constraints.is_empty(), "{src}");
            assert!(f.residual.is_some(), "{src}");
        }
        // No wildcard at all: equality (the empty pattern included).
        for lit in ["abc", ""] {
            let f = form(&format!("s LIKE '{lit}'"));
            assert_eq!(
                f.constraints,
                vec![Constraint::Eq {
                    field: "s".into(),
                    value: Value::from(lit),
                }]
            );
            assert!(f.residual.is_some());
        }
    }

    /// The key atoms of `src` as `(key text, constraint)`; every one of
    /// them must also still be in the residual.
    fn keys(src: &str) -> Vec<(String, Constraint)> {
        let f = form(src);
        let residual = f.residual.map(|r| r.to_string()).unwrap_or_default();
        f.keys
            .into_iter()
            .map(|k| {
                assert_eq!(k.expr.to_string(), k.constraint.field());
                assert!(residual.contains(k.constraint.field()), "{src}: {residual}");
                (k.expr.to_string(), k.constraint)
            })
            .collect()
    }

    fn int_bound(value: i64, inclusive: bool) -> Option<Bound> {
        Some(Bound {
            value: Value::Int(value),
            inclusive,
        })
    }

    #[test]
    fn computed_left_sides_become_keys() {
        let eq5 = Constraint::Eq {
            field: "volume % 97".into(),
            value: Value::Int(5),
        };
        assert_eq!(keys("volume % 97 = 5"), vec![("volume % 97".into(), eq5)]);
        // Flipped operands and a const-folded right side: same key, same atom.
        assert_eq!(keys("5 = volume % 97"), keys("volume % 97 = 5"));
        assert_eq!(keys("volume % 97 = 2 + 3"), keys("volume % 97 = 5"));
        // Beside a field constraint: the field goes to `constraints`, the
        // key to `keys`, and only the key conjunct stays residual.
        let f = form("sym = 'A' AND volume % 97 = 5");
        assert_eq!(f.constraints.len(), 1);
        assert_eq!(f.keys.len(), 1);
        assert_eq!(f.residual.unwrap().to_string(), "volume % 97 = 5");
        // Relops, either operand order.
        let range = |low, high| Constraint::Range {
            field: "qty * 2".into(),
            low,
            high,
        };
        assert_eq!(keys("qty * 2 > 10")[0].1, range(int_bound(10, false), None));
        assert_eq!(keys("10 >= qty * 2")[0].1, range(None, int_bound(10, true)));
        assert_eq!(
            keys("qty * 2 BETWEEN 4 AND 2 * 4")[0].1,
            range(int_bound(4, true), int_bound(8, true))
        );
        assert_eq!(
            keys("length(sym) IN (2, 3, 2)"),
            vec![(
                "length(sym)".into(),
                Constraint::In {
                    field: "length(sym)".into(),
                    values: vec![Value::Int(2), Value::Int(3)],
                }
            )]
        );
        // Structural identity only: no algebraic normalisation.
        assert_ne!(keys("qty * 2 = 4")[0].0, keys("2 * qty = 4")[0].0);
        // The text tells an integer literal from a float one at any
        // magnitude — integer and float division are different keys.
        assert_ne!(
            keys("qty / 1000000000000000 = 0")[0].0,
            keys("qty / 1000000000000000.0 = 0")[0].0
        );
    }

    #[test]
    fn what_is_not_a_key() {
        for src in [
            "a = 1",              // bare field: a Constraint
            "1 + 1 = 2",          // constant left side
            "2 = 1 + 1",          // ... in either order
            "NOT a % 2 = 1",      // negation
            "a % 2 != 1",         // inequality
            "a % 2 = NULL",       // NULL constant
            "a % 2 IN (1, NULL)", // NULL in the list
            "a % 2 NOT IN (1)",   // negated list
            "a % 2 NOT BETWEEN 0 AND 1",
            "a % 2 = b", // non-constant right side
            "a % 2 BETWEEN 0 AND b",
            "a % 2 IN (1, b)",
            "a % 2 = 1 OR a = 3", // not a top-level conjunct
        ] {
            assert!(form(src).keys.is_empty(), "{src}");
        }
        assert_eq!(form("a = 1").constraints.len(), 1);
    }

    #[test]
    fn const_folded_rhs() {
        let f = form("px > 10 * 10");
        match &f.constraints[0] {
            Constraint::Range { low, .. } => {
                assert_eq!(low.as_ref().unwrap().value, Value::Int(100));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn computed_constants_fold_on_the_vm_into_ranges() {
        // The parser makes `-5` a literal (the shortcut); the other two
        // bounds are computed, so they take the VM fold.
        let cases = [
            ("px > -5", Value::Int(-5)),
            ("px > 0 - 5", Value::Int(-5)),
            ("px > 2 * 50", Value::Int(100)),
        ];
        for (text, bound) in cases {
            match &form(text).constraints[..] {
                [Constraint::Range { low: Some(low), high: None, .. }] => {
                    assert_eq!((&low.value, low.inclusive), (&bound, false), "{text}");
                }
                other => panic!("{text}: {other:?}"),
            }
        }
    }

    #[test]
    fn constraint_accepts() {
        let c = Constraint::Range {
            field: "x".into(),
            low: Some(Bound {
                value: Value::Int(1),
                inclusive: true,
            }),
            high: Some(Bound {
                value: Value::Int(5),
                inclusive: false,
            }),
        };
        assert!(c.accepts(&Value::Int(1)));
        assert!(c.accepts(&Value::Float(4.9)));
        assert!(!c.accepts(&Value::Int(5)));
        assert!(!c.accepts(&Value::Null));

        let c = Constraint::In {
            field: "s".into(),
            values: vec![Value::from("a")],
        };
        assert!(c.accepts(&Value::from("a")));
        assert!(!c.accepts(&Value::from("b")));
    }
}
