//! Dynamically typed values and their data types.
//!
//! [`Value`] is the cell type of every record, message payload and
//! expression result in EventDB. It is cheap to clone (strings and byte
//! arrays are reference counted) and has a **total order** and a **hash
//! consistent with equality**, so values can serve as index keys in the
//! storage engine and in the rule matcher's per-attribute hash indexes.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::time::TimestampMs;

/// The static type of a [`Value`].
///
/// Schemas attach a `DataType` to each field; the expression type checker
/// uses them to reject ill-typed predicates before any event is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Float,
    /// UTF-8 string.
    Str,
    /// Raw bytes.
    Bytes,
    /// Millisecond-precision timestamp.
    Timestamp,
}

impl DataType {
    /// Whether a value of this type can be compared numerically with the
    /// other type (ints and floats inter-compare in expressions).
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }

    /// Human-readable name used in error messages and schema printouts.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STR",
            DataType::Bytes => "BYTES",
            DataType::Timestamp => "TIMESTAMP",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A dynamically typed value.
///
/// `Null` is a member of every type (field nullability is enforced by the
/// schema, not the value). Strings and byte arrays are `Arc`-backed so that
/// cloning a value — which happens on every index insertion and message
/// copy — never reallocates payload bytes.
#[derive(Debug, Clone)]
pub enum Value {
    /// Absence of a value.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(Arc<str>),
    /// Raw bytes.
    Bytes(Arc<[u8]>),
    /// Millisecond timestamp.
    Timestamp(TimestampMs),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// Construct a bytes value.
    pub fn bytes(b: impl Into<Arc<[u8]>>) -> Self {
        Value::Bytes(b.into())
    }

    /// The runtime [`DataType`], or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Bytes(_) => Some(DataType::Bytes),
            Value::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    /// True if this value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract a bool, if this value is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extract an integer, if this value is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Extract the numeric content as `f64`: ints widen, floats pass
    /// through, timestamps expose their millisecond count.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Timestamp(t) => Some(t.0 as f64),
            _ => None,
        }
    }

    /// Extract a string slice, if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extract a timestamp, if this value is one.
    pub fn as_timestamp(&self) -> Option<TimestampMs> {
        match self {
            Value::Timestamp(t) => Some(*t),
            _ => None,
        }
    }

    /// Whether `self` can be stored in a field of type `dtype`.
    /// `Null` fits any type; ints may be stored in float fields.
    pub fn fits(&self, dtype: DataType) -> bool {
        match (self, dtype) {
            (Value::Null, _) => true,
            (Value::Int(_), DataType::Float) => true,
            (v, d) => v.data_type() == Some(d),
        }
    }

    /// Coerce to the given type if a lossless (or int→float) conversion
    /// exists, otherwise return the value unchanged.
    pub fn coerce(self, dtype: DataType) -> Value {
        match (&self, dtype) {
            (Value::Int(i), DataType::Float) => Value::Float(*i as f64),
            (Value::Int(i), DataType::Timestamp) => Value::Timestamp(TimestampMs(*i)),
            _ => self,
        }
    }

    /// Rank used to order values of *different* types; gives `Value` a
    /// total order so heterogeneous index keys sort deterministically.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2, // ints and floats inter-sort numerically
            Value::Timestamp(_) => 3,
            Value::Str(_) => 4,
            Value::Bytes(_) => 5,
        }
    }

    /// SQL-style three-valued comparison used by the expression evaluator:
    /// returns `None` when either side is `Null` or the types are
    /// incomparable; numerics inter-compare.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => Some(a.total_cmp(b)),
            (Value::Int(a), Value::Float(b)) => Some((*a as f64).total_cmp(b)),
            (Value::Float(a), Value::Int(b)) => Some(a.total_cmp(&(*b as f64))),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bytes(a), Value::Bytes(b)) => Some(a.cmp(b)),
            (Value::Timestamp(a), Value::Timestamp(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: by type rank, then within-type. Ints and floats share a
    /// rank and compare numerically (`total_cmp` for NaN determinism), so
    /// `Int(1) == Float(1.0)` under this order — convenient for index keys
    /// fed from mixed numeric expressions.
    fn cmp(&self, other: &Self) -> Ordering {
        let (ra, rb) = (self.type_rank(), other.type_rank());
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Timestamp(a), Value::Timestamp(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bytes(a), Value::Bytes(b)) => a.cmp(b),
            _ => unreachable!("type ranks matched but variants differ"),
        }
    }
}

impl Hash for Value {
    /// Hash consistent with `Eq`: numeric values hash through their `f64`
    /// bit pattern so `Int(1)` and `Float(1.0)` collide as required.
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            Value::Int(i) => {
                state.write_u8(2);
                state.write_u64((*i as f64).to_bits());
            }
            Value::Float(f) => {
                state.write_u8(2);
                // Normalize -0.0 to 0.0 (they are Ord-equal via total_cmp?
                // no: total_cmp orders -0.0 < 0.0, so they are NOT equal and
                // may hash differently; keep raw bits).
                state.write_u64(f.to_bits());
            }
            Value::Timestamp(t) => {
                state.write_u8(3);
                t.0.hash(state);
            }
            Value::Str(s) => {
                state.write_u8(4);
                s.hash(state);
            }
            Value::Bytes(b) => {
                state.write_u8(5);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                // An integral float keeps its fraction, whatever its
                // size: the text must not read back as an integer.
                if x.fract() == 0.0 && x.is_finite() {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            // Quotes double inside the literal; most strings have none,
            // and those render without an intermediate copy.
            Value::Str(s) if s.contains('\'') => write!(f, "'{}'", s.replace('\'', "''")),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bytes(b) => {
                f.write_str("x'")?;
                for byte in b.iter() {
                    write!(f, "{byte:02x}")?;
                }
                f.write_str("'")
            }
            Value::Timestamp(t) => write!(f, "@{}", t.0),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(Arc::from(s))
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}
impl<'a> From<Cow<'a, str>> for Value {
    fn from(s: Cow<'a, str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }
}
impl From<TimestampMs> for Value {
    fn from(t: TimestampMs) -> Self {
        Value::Timestamp(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn type_checks() {
        assert_eq!(Value::Int(3).data_type(), Some(DataType::Int));
        assert_eq!(Value::Null.data_type(), None);
        assert!(Value::Null.is_null());
        assert!(Value::Int(1).fits(DataType::Float));
        assert!(!Value::Float(1.0).fits(DataType::Int));
        assert!(Value::Null.fits(DataType::Str));
    }

    #[test]
    fn numeric_cross_type_equality_and_hash() {
        assert_eq!(Value::Int(7), Value::Float(7.0));
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Float(7.0)));
        assert_ne!(Value::Int(7), Value::Float(7.5));
    }

    #[test]
    fn total_order_across_types() {
        let mut vals = [
            Value::from("abc"),
            Value::Int(-1),
            Value::Null,
            Value::Bool(true),
            Value::Float(0.5),
            Value::Timestamp(TimestampMs(10)),
        ];
        vals.sort();
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Int(-1));
        assert_eq!(vals[3], Value::Float(0.5));
        assert_eq!(vals[4], Value::Timestamp(TimestampMs(10)));
        assert_eq!(vals[5], Value::from("abc"));
    }

    #[test]
    fn sql_cmp_null_propagates() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(
            Value::Int(1).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Less)
        );
        // Incomparable types yield None rather than panicking.
        assert_eq!(Value::Bool(true).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn display_round_trips_visually() {
        assert_eq!(Value::from("o'brien").to_string(), "'o''brien'");
        assert_eq!(Value::from("O'Brien").to_string(), "'O''Brien'");
        // A string without a quote takes the renderer's other arm.
        assert_eq!(Value::from("IBM").to_string(), "'IBM'");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Int(2).to_string(), "2");
        // A float never prints as an integer literal, however large.
        assert_eq!(Value::Float(1e15).to_string(), "1000000000000000.0");
        assert_ne!(
            Value::Float(1e18).to_string(),
            Value::Int(10i64.pow(18)).to_string()
        );
        assert_eq!(Value::bytes([0xde, 0xad].as_slice().to_vec()).to_string(), "x'dead'");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn nan_is_self_equal_under_total_order() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_eq!(nan, nan.clone());
    }

    #[test]
    fn coerce_int_to_float() {
        assert_eq!(Value::Int(3).coerce(DataType::Float), Value::Float(3.0));
        assert_eq!(Value::from("x").coerce(DataType::Float), Value::from("x"));
    }
}
