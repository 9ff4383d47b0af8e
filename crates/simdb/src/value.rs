//! Typed cell values and the column type lattice.
//!
//! The AMP security model (paper §3) depends on *strict data type
//! constraints* on every table: "Incoming user data is parsed by the web
//! server and uploaded to database tables with strict data type
//! constraints." `Value` and `ValueType` are the enforcement point — a cell
//! can only be stored if its runtime type matches the declared column type.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ValueType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float. NaN and ±∞ are rejected at the door
    /// ([`Value::conforms_to`]): ordering stays total, and neither the log
    /// nor the snapshot ever holds one.
    Float,
    /// Boolean.
    Bool,
    /// UTF-8 text, optionally bounded by `Column::max_length`.
    Text,
    /// Milliseconds since the UNIX epoch (virtual or real time).
    Timestamp,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Int => "INT",
            ValueType::Float => "FLOAT",
            ValueType::Bool => "BOOL",
            ValueType::Text => "TEXT",
            ValueType::Timestamp => "TIMESTAMP",
        };
        f.write_str(s)
    }
}

/// A single cell value.
///
/// `Null` is a member of every type; whether a column admits it is governed
/// by `Column::not_null`. Text is an immutable `Arc<str>`, so cloning a cell
/// — into a query result, an index run, a copied row — bumps a reference
/// count and never copies the string; a `Value` is 24 bytes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Bool(bool),
    Text(Arc<str>),
    Timestamp(i64),
}

impl Value {
    /// The runtime type of this value, or `None` for `Null`.
    pub fn value_type(&self) -> Option<ValueType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(ValueType::Int),
            Value::Float(_) => Some(ValueType::Float),
            Value::Bool(_) => Some(ValueType::Bool),
            Value::Text(_) => Some(ValueType::Text),
            Value::Timestamp(_) => Some(ValueType::Timestamp),
        }
    }

    /// True if this value may be stored in a column of type `ty`
    /// (ignoring nullability, which the schema checks separately). A
    /// non-finite float conforms to no type.
    pub fn conforms_to(&self, ty: ValueType) -> bool {
        match self {
            Value::Float(f) if !f.is_finite() => false,
            _ => self.value_type().is_none_or(|t| t == ty),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(v) => Some(&**v),
            _ => None,
        }
    }

    pub fn as_timestamp(&self) -> Option<i64> {
        match self {
            Value::Timestamp(v) => Some(*v),
            _ => None,
        }
    }

    /// Total ordering used by indexes and `ORDER BY`.
    ///
    /// `Null` sorts before everything; values of different types sort by a
    /// fixed type rank (only reachable when comparing across columns, which
    /// the query layer never does).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) => 2,
                Value::Float(_) => 3,
                Value::Timestamp(_) => 4,
                Value::Text(_) => 5,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Timestamp(a), Value::Timestamp(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Equality for constraint/index purposes (floats by bit-equivalent
    /// `total_cmp`, so `-0.0 != 0.0` — acceptable for key use).
    pub fn key_eq(&self, other: &Value) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.key_eq(other)
    }
}

impl Eq for Value {}

/// [`Value::total_cmp`]: the order indexes keep.
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Text(v) => write!(f, "{v}"),
            Value::Timestamp(v) => write!(f, "@{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.into())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v.into())
    }
}
impl From<Arc<str>> for Value {
    fn from(v: Arc<str>) -> Self {
        Value::Text(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_conformance() {
        assert!(Value::Int(3).conforms_to(ValueType::Int));
        assert!(!Value::Int(3).conforms_to(ValueType::Float));
        assert!(Value::Null.conforms_to(ValueType::Text));
        assert!(Value::Text("x".into()).conforms_to(ValueType::Text));
        assert!(!Value::Bool(true).conforms_to(ValueType::Int));
        assert!(!Value::Float(f64::NAN).conforms_to(ValueType::Float));
    }

    #[test]
    fn ordering_is_total_and_null_first() {
        let mut vals = [Value::Int(5), Value::Null, Value::Int(-1), Value::Int(3)];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Int(-1));
        assert_eq!(vals[3], Value::Int(5));
    }

    #[test]
    fn float_total_order_handles_negatives() {
        assert_eq!(
            Value::Float(-1.0).total_cmp(&Value::Float(2.0)),
            Ordering::Less
        );
        assert_eq!(
            Value::Float(2.0).total_cmp(&Value::Float(2.0)),
            Ordering::Equal
        );
    }

    #[test]
    fn display_roundtrip_smoke() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Timestamp(12).to_string(), "@12");
    }

    /// A cell is three words: a tag and a fat `Arc<str>` pointer, the
    /// widest payload.
    #[test]
    fn a_value_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
    }

    #[test]
    fn option_conversion() {
        let v: Value = Some(3i64).into();
        assert_eq!(v, Value::Int(3));
        let v: Value = Option::<i64>::None.into();
        assert!(v.is_null());
    }
}
