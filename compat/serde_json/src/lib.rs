//! Offline stand-in for `serde_json`: a JSON `Value`, strict parser,
//! compact + pretty printers, `json!`, and the typed entry points
//! (`to_string`, `to_vec`, `from_str`, `from_slice`, `from_value`) wired
//! through the vendored `serde` stand-in's `Content` model.
//!
//! Floats print via Rust's shortest-roundtrip `Display`, which satisfies
//! the `float_roundtrip` behavior the workspace requests.

use serde::{Content, DeError, Deserialize, Serialize};
use std::fmt;

#[macro_use]
mod macros;
mod parse;
mod print;

pub use parse::Reader;

/// JSON error (parse or data-shape mismatch).
#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

pub type Result<T> = std::result::Result<T, Error>;

/// A JSON number: integer-preserving like serde_json's.
#[derive(Debug, Clone, Copy)]
pub struct Number(pub(crate) N);

#[derive(Debug, Clone, Copy)]
pub(crate) enum N {
    I(i64),
    U(u64),
    F(f64),
}

impl Number {
    pub fn as_f64(&self) -> Option<f64> {
        match self.0 {
            N::I(v) => Some(v as f64),
            N::U(v) => Some(v as f64),
            N::F(v) => Some(v),
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self.0 {
            N::I(v) => Some(v),
            N::U(v) => i64::try_from(v).ok(),
            N::F(_) => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self.0 {
            N::I(v) => u64::try_from(v).ok(),
            N::U(v) => Some(v),
            N::F(_) => None,
        }
    }

    pub fn from_f64(v: f64) -> Option<Number> {
        v.is_finite().then_some(Number(N::F(v)))
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self.0, other.0) {
            (N::F(a), N::F(b)) => a == b,
            (N::F(_), _) | (_, N::F(_)) => false,
            // integers compare by value across signedness
            _ => match (self.as_i64(), other.as_i64()) {
                (Some(a), Some(b)) => a == b,
                _ => self.as_u64() == other.as_u64(),
            },
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            N::I(v) => write!(f, "{v}"),
            N::U(v) => write!(f, "{v}"),
            N::F(v) => {
                let s = format!("{v}");
                if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
                    f.write_str(&s)
                } else {
                    // match serde_json: integral floats keep a ".0"
                    write!(f, "{s}.0")
                }
            }
        }
    }
}

/// Insertion-ordered string-keyed object map.
#[derive(Debug, Clone, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    pub fn new() -> Map {
        Map::default()
    }

    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            return Some(std::mem::replace(&mut slot.1, value));
        }
        self.entries.push((key, value));
        None
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.entries.iter().map(|(k, _)| k)
    }

    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }
}

impl PartialEq for Map {
    fn eq(&self, other: &Self) -> bool {
        // map semantics: order-insensitive
        self.len() == other.len() && self.entries.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&print::compact(self))
    }
}

// ------------------------------------------------------- Content bridging

pub(crate) fn value_to_content(v: &Value) -> Content {
    match v {
        Value::Null => Content::Null,
        Value::Bool(b) => Content::Bool(*b),
        Value::Number(n) => match n.0 {
            N::I(i) => Content::I64(i),
            N::U(u) => Content::U64(u),
            N::F(f) => Content::F64(f),
        },
        Value::String(s) => Content::Str(s.clone()),
        Value::Array(a) => Content::Seq(a.iter().map(value_to_content).collect()),
        Value::Object(m) => Content::Map(
            m.entries
                .iter()
                .map(|(k, v)| (k.clone(), value_to_content(v)))
                .collect(),
        ),
    }
}

pub(crate) fn content_to_value(c: &Content) -> Value {
    match c {
        Content::Null => Value::Null,
        Content::Bool(b) => Value::Bool(*b),
        Content::I64(i) => Value::Number(Number(N::I(*i))),
        Content::U64(u) => Value::Number(Number(N::U(*u))),
        Content::F64(f) => Value::Number(Number(N::F(*f))),
        Content::Str(s) => Value::String(s.clone()),
        Content::Seq(s) => Value::Array(s.iter().map(content_to_value).collect()),
        Content::Map(m) => {
            let mut map = Map::new();
            for (k, v) in m {
                map.insert(k.clone(), content_to_value(v));
            }
            Value::Object(map)
        }
    }
}

impl Serialize for Value {
    fn to_content(&self) -> Content {
        value_to_content(self)
    }
}

impl Deserialize for Value {
    fn from_content(c: &Content) -> std::result::Result<Self, DeError> {
        Ok(content_to_value(c))
    }
}

macro_rules! impl_value_partial_eq {
    ($($t:ty => |$v:ident| $conv:expr),+ $(,)?) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                let $v = other;
                self == &$conv
            }
        }
        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool {
                other == self
            }
        }
    )+};
}

impl_value_partial_eq! {
    &str => |v| Value::String(v.to_string()),
    str => |v| Value::String(v.to_string()),
    String => |v| Value::String(v.clone()),
    bool => |v| Value::Bool(*v),
    i32 => |v| Value::Number(Number(N::I(*v as i64))),
    i64 => |v| Value::Number(Number(N::I(*v))),
    u64 => |v| Value::Number(Number(N::U(*v))),
    f64 => |v| Value::Number(Number(N::F(*v))),
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Number(Number(N::I(v)))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Number(Number(N::F(v)))
    }
}

// ------------------------------------------------------------ entry points

/// Convert any serializable value into a `Value` (used by `json!`).
pub fn to_value<T: Serialize + ?Sized>(v: &T) -> Value {
    content_to_value(&v.to_content())
}

pub fn from_value<T: Deserialize>(v: Value) -> Result<T> {
    Ok(T::from_content(&value_to_content(&v))?)
}

pub fn to_string<T: Serialize + ?Sized>(v: &T) -> Result<String> {
    Ok(print::compact_content(&v.to_content()))
}

pub fn to_string_pretty<T: Serialize + ?Sized>(v: &T) -> Result<String> {
    Ok(print::pretty_content(&v.to_content()))
}

pub fn to_vec<T: Serialize + ?Sized>(v: &T) -> Result<Vec<u8>> {
    to_string(v).map(String::into_bytes)
}

pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let content = parse::parse(s)?;
    Ok(T::from_content(&content)?)
}

pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let s = std::str::from_utf8(bytes)
        .map_err(|e| Error(format!("invalid UTF-8 in JSON input: {e}")))?;
    from_str(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip() {
        let v = json!({"a": 1, "b": [true, null, 2.5], "c": {"d": "x"}});
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(v["a"].as_i64(), Some(1));
        assert_eq!(v["b"][2].as_f64(), Some(2.5));
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn compact_format_matches_serde_json() {
        assert_eq!(to_string(&json!({"a": 1})).unwrap(), "{\"a\":1}");
        assert_eq!(to_string(&json!([1, 2])).unwrap(), "[1,2]");
        assert_eq!(to_string(&json!("x\"y")).unwrap(), "\"x\\\"y\"");
        assert_eq!(to_string(&json!(1.0)).unwrap(), "1.0");
        assert_eq!(to_string(&json!(null)).unwrap(), "null");
    }

    #[test]
    fn typed_roundtrip() {
        let entries: Vec<(String, Vec<u8>)> = vec![("a".into(), vec![1, 2]), ("b".into(), vec![])];
        let bytes = to_vec(&entries).unwrap();
        let back: Vec<(String, Vec<u8>)> = from_slice(&bytes).unwrap();
        assert_eq!(back, entries);
    }

    #[test]
    fn float_shortest_roundtrip() {
        for v in [0.1, 1.0 / 3.0, 1e-12, 123456.789, f64::MIN_POSITIVE] {
            let s = to_string(&v).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back, v, "{s}");
        }
    }

    #[test]
    fn json_macro_shapes() {
        let n = 3;
        let items: Vec<i64> = vec![1, 2];
        let v = json!({
            "lit": "s",
            "expr": n + 1,
            "arr": items,
            "nested": {"inner": [1, {"deep": true}]},
            "empty_arr": [],
            "empty_obj": {}
        });
        assert_eq!(v["expr"].as_i64(), Some(4));
        assert_eq!(v["arr"].as_array().unwrap().len(), 2);
        assert_eq!(v["nested"]["inner"][1]["deep"].as_bool(), Some(true));
        // dynamic keys
        let key = "k".to_string();
        let dv = json!({ key.as_str(): 9 });
        assert_eq!(dv["k"].as_i64(), Some(9));
        // top-level forms
        assert_eq!(json!([]), Value::Array(vec![]));
        assert_eq!(json!(7).as_i64(), Some(7));
    }

    #[test]
    fn reader_walks_objects_member_by_member() {
        let text = r#" {"a": 1, "deep": {"x": [1, {"y": null}], "z": {}}, "b": "s"} "#;
        let whole: Value = from_str(text).unwrap();
        let mut seen = Vec::new();
        let mut reader = Reader::new(text);
        reader
            .object(|reader, key| {
                if key == "deep" {
                    return reader.object(|reader, inner| {
                        seen.push((format!("deep.{inner}"), reader.value()?));
                        Ok(())
                    });
                }
                seen.push((key, reader.value()?));
                Ok(())
            })
            .unwrap();
        reader.end().unwrap();
        let keys: Vec<&str> = seen.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "deep.x", "deep.z", "b"]);
        assert_eq!(content_to_value(&seen[1].1), whole["deep"]["x"]);

        // A member left unconsumed, a non-object, and trailing text all fail.
        assert!(Reader::new(text).object(|_, _| Ok(())).is_err());
        assert!(Reader::new("[1]")
            .object(|r, _| r.value().map(drop))
            .is_err());
        let mut reader = Reader::new("{} x");
        reader.object(|r, _| r.value().map(drop)).unwrap();
        assert!(reader.end().is_err());
    }

    #[test]
    fn parse_errors_do_not_panic() {
        assert!(from_str::<Value>("{broken").is_err());
        assert!(from_str::<Value>("").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("\"unterminated").is_err());
    }

    #[test]
    fn string_escapes() {
        let s = "tab\t nl\n quote\" back\\ unicode \u{1F600}é";
        let text = to_string(&s.to_string()).unwrap();
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, s);
        // \uXXXX escapes parse too (incl. surrogate pairs)
        let parsed: String = from_str("\"a\\u0041\\ud83d\\ude00\"").unwrap();
        assert_eq!(parsed, "aA\u{1F600}");
    }
}
