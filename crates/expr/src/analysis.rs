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
//! * everything else (ORs, functions, cross-field comparisons, NOTs…)
//!   → folded back into the residual expression.
//!
//! The decomposition is **sound, not complete**: the original predicate is
//! always equivalent to `constraints ∧ residual` (verified by proptest in
//! the rules crate), but some index opportunities inside ORs are left to
//! the residual.

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

/// The result of [`analyze`]: indexable constraints plus what is left.
#[derive(Debug, Clone, Default)]
pub struct ConjunctiveForm {
    /// Indexable atoms; the predicate implies each of them.
    pub constraints: Vec<Constraint>,
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
            Some(c) => form.constraints.push(c),
            None => {
                // Implied, not equivalent: the LIKE itself stays residual.
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

/// Try to turn one conjunct into an indexable constraint.
fn extract(atom: &Expr) -> Option<Constraint> {
    match atom {
        Expr::Binary { op, left, right } if op.is_comparison() => {
            // Normalize to field-op-constant.
            let (field, op, value) = match (&**left, &**right) {
                (Expr::Field(f), rhs) => (f, *op, const_eval(rhs)?),
                (lhs, Expr::Field(f)) => (f, op.flipped(), const_eval(lhs)?),
                _ => return None,
            };
            if value.is_null() {
                return None; // `field = NULL` never matches; leave in residual
            }
            match op {
                BinaryOp::Eq => Some(Constraint::Eq {
                    field: field.clone(),
                    value,
                }),
                BinaryOp::Lt => Some(Constraint::Range {
                    field: field.clone(),
                    low: None,
                    high: Some(Bound {
                        value,
                        inclusive: false,
                    }),
                }),
                BinaryOp::Le => Some(Constraint::Range {
                    field: field.clone(),
                    low: None,
                    high: Some(Bound {
                        value,
                        inclusive: true,
                    }),
                }),
                BinaryOp::Gt => Some(Constraint::Range {
                    field: field.clone(),
                    low: Some(Bound {
                        value,
                        inclusive: false,
                    }),
                    high: None,
                }),
                BinaryOp::Ge => Some(Constraint::Range {
                    field: field.clone(),
                    low: Some(Bound {
                        value,
                        inclusive: true,
                    }),
                    high: None,
                }),
                // `!=` is not usefully indexable.
                _ => None,
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated: false,
        } => {
            let field = match &**expr {
                Expr::Field(f) => f,
                _ => return None,
            };
            let lo = const_eval(low)?;
            let hi = const_eval(high)?;
            if lo.is_null() || hi.is_null() {
                return None;
            }
            Some(Constraint::Range {
                field: field.clone(),
                low: Some(Bound {
                    value: lo,
                    inclusive: true,
                }),
                high: Some(Bound {
                    value: hi,
                    inclusive: true,
                }),
            })
        }
        Expr::InList {
            expr,
            list,
            negated: false,
        } => {
            let field = match &**expr {
                Expr::Field(f) => f,
                _ => return None,
            };
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
            Some(Constraint::In {
                field: field.clone(),
                values,
            })
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
