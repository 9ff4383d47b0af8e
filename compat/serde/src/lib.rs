//! Offline stand-in for `serde`, providing the subset this workspace uses:
//! `#[derive(Serialize, Deserialize)]` (re-exported from the companion
//! `serde_derive` stub) over a self-describing JSON-like `Content` tree.
//!
//! The data model follows serde's JSON conventions so `serde_json` behaves
//! identically for every type in this repository:
//! * structs serialize as maps keyed by field name;
//! * newtype structs are transparent;
//! * tuple structs with two or more fields serialize as sequences;
//! * unit enum variants serialize as their name string; data-carrying
//!   variants serialize externally tagged (`{"Variant": ...}`);
//! * `Option` maps `None` to null; `#[serde(skip)]` omits the field on
//!   serialization and fills it from `Default` on deserialization.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

pub use serde_derive::{Deserialize, Serialize};

/// The self-describing value tree all (de)serialization passes through.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    Null,
    Bool(bool),
    I64(i64),
    U64(u64),
    F64(f64),
    Str(String),
    Seq(Vec<Content>),
    Map(Vec<(String, Content)>),
}

impl Content {
    pub fn as_map(&self) -> Option<&[(String, Content)]> {
        match self {
            Content::Map(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_seq(&self) -> Option<&[Content]> {
        match self {
            Content::Seq(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Content::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Content::I64(v) => Some(*v),
            Content::U64(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Content::U64(v) => Some(*v),
            Content::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Content::F64(v) => Some(*v),
            Content::I64(v) => Some(*v as f64),
            Content::U64(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Content::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Content::Null => "null",
            Content::Bool(_) => "bool",
            Content::I64(_) | Content::U64(_) => "integer",
            Content::F64(_) => "float",
            Content::Str(_) => "string",
            Content::Seq(_) => "sequence",
            Content::Map(_) => "map",
        }
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError(pub String);

impl DeError {
    pub fn custom(msg: impl Into<String>) -> DeError {
        DeError(msg.into())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

pub trait Serialize {
    fn to_content(&self) -> Content;
}

pub trait Deserialize: Sized {
    fn from_content(c: &Content) -> Result<Self, DeError>;
}

/// Look up a struct field in a serialized map (used by derived impls).
pub fn de_field<T: Deserialize>(m: &[(String, Content)], key: &str) -> Result<T, DeError> {
    match m.iter().find(|(k, _)| k == key) {
        Some((_, v)) => T::from_content(v).map_err(|e| DeError(format!("field `{key}`: {e}"))),
        None => Err(DeError(format!("missing field `{key}`"))),
    }
}

// ---------------------------------------------------------------- primitives

impl Serialize for bool {
    fn to_content(&self) -> Content {
        Content::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        c.as_bool()
            .ok_or_else(|| DeError(format!("expected bool, found {}", c.kind())))
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                Content::I64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                let v = c
                    .as_i64()
                    .ok_or_else(|| DeError(format!(
                        "expected integer, found {}", c.kind())))?;
                <$t>::try_from(v).map_err(|_| DeError(format!(
                    "integer {v} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                Content::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                let v = c
                    .as_u64()
                    .ok_or_else(|| DeError(format!(
                        "expected unsigned integer, found {}", c.kind())))?;
                <$t>::try_from(v).map_err(|_| DeError(format!(
                    "integer {v} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);
impl_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_content(&self) -> Content {
        Content::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        c.as_f64()
            .ok_or_else(|| DeError(format!("expected number, found {}", c.kind())))
    }
}

impl Serialize for f32 {
    fn to_content(&self) -> Content {
        Content::F64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        f64::from_content(c).map(|v| v as f32)
    }
}

impl Serialize for char {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let s = c
            .as_str()
            .ok_or_else(|| DeError(format!("expected char, found {}", c.kind())))?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(ch), None) => Ok(ch),
            _ => Err(DeError(format!("expected single char, found {s:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_content(&self) -> Content {
        Content::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        c.as_str()
            .map(str::to_string)
            .ok_or_else(|| DeError(format!("expected string, found {}", c.kind())))
    }
}

impl Serialize for str {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl Serialize for () {
    fn to_content(&self) -> Content {
        Content::Null
    }
}

impl Deserialize for () {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Null => Ok(()),
            other => Err(DeError(format!("expected null, found {}", other.kind()))),
        }
    }
}

// ------------------------------------------------------------- combinators

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        T::from_content(c).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl Deserialize for Arc<str> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        c.as_str()
            .map(Arc::from)
            .ok_or_else(|| DeError(format!("expected string, found {}", c.kind())))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_content(&self) -> Content {
        match self {
            Some(v) => v.to_content(),
            None => Content::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Null => Ok(None),
            other => T::from_content(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        c.as_seq()
            .ok_or_else(|| DeError(format!("expected sequence, found {}", c.kind())))?
            .iter()
            .map(T::from_content)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_content(&self) -> Content {
                Content::Seq(vec![$(self.$n.to_content()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                let s = c.as_seq().ok_or_else(|| DeError(format!(
                    "expected tuple sequence, found {}", c.kind())))?;
                const LEN: usize = 0 $(+ { let _ = $n; 1 })+;
                if s.len() != LEN {
                    return Err(DeError(format!(
                        "expected tuple of {LEN}, found {} elements", s.len())));
                }
                Ok(($($t::from_content(&s[$n])?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
}

/// Map keys serialize as JSON object keys (strings), mirroring
/// serde_json's stringification of integer-keyed maps.
pub trait MapKey: Sized {
    fn to_key(&self) -> String;
    fn from_key(key: &str) -> Result<Self, DeError>;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(key: &str) -> Result<Self, DeError> {
        Ok(key.to_string())
    }
}

macro_rules! impl_map_key_int {
    ($($t:ty),+) => {$(
        impl MapKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(key: &str) -> Result<Self, DeError> {
                key.parse().map_err(|_| {
                    DeError(format!("invalid {} map key: {key:?}", stringify!($t)))
                })
            }
        }
    )+};
}

impl_map_key_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl<K: MapKey + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_content(&self) -> Content {
        Content::Map(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_content()))
                .collect(),
        )
    }
}

impl<K: MapKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        c.as_map()
            .ok_or_else(|| DeError(format!("expected map, found {}", c.kind())))?
            .iter()
            .map(|(k, v)| Ok((K::from_key(k)?, V::from_content(v)?)))
            .collect()
    }
}

impl<K: MapKey + Eq + std::hash::Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn to_content(&self) -> Content {
        // Sort keys so serialization is deterministic.
        let mut entries: Vec<(String, Content)> = self
            .iter()
            .map(|(k, v)| (k.to_key(), v.to_content()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Content::Map(entries)
    }
}

impl<K: MapKey + Eq + std::hash::Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        c.as_map()
            .ok_or_else(|| DeError(format!("expected map, found {}", c.kind())))?
            .iter()
            .map(|(k, v)| Ok((K::from_key(k)?, V::from_content(v)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u64::from_content(&42u64.to_content()).unwrap(), 42);
        assert_eq!(i64::from_content(&(-5i64).to_content()).unwrap(), -5);
        assert_eq!(f64::from_content(&1.5f64.to_content()).unwrap(), 1.5);
        assert_eq!(
            String::from_content(&"hi".to_string().to_content()).unwrap(),
            "hi"
        );
        assert_eq!(Option::<u8>::from_content(&Content::Null).unwrap(), None);
        assert_eq!(
            Vec::<u8>::from_content(&vec![1u8, 2].to_content()).unwrap(),
            vec![1, 2]
        );
    }

    /// Shared text serializes as the string it points at and reads back
    /// into a fresh `Arc<str>`.
    #[test]
    fn arc_str_roundtrip() {
        let shared: Arc<str> = Arc::from("HD 52265");
        assert_eq!(shared.to_content(), Content::Str("HD 52265".into()));
        let back = Arc::<str>::from_content(&shared.to_content()).unwrap();
        assert_eq!(back, shared);
        assert!(Arc::<str>::from_content(&Content::I64(1)).is_err());
        let boxed: Arc<Vec<u8>> = Arc::new(vec![1, 2]);
        assert_eq!(boxed.to_content(), vec![1u8, 2].to_content());
    }

    #[test]
    fn cross_width_integers() {
        // a u64-encoded value reads back as i64 and vice versa when in range
        assert_eq!(i64::from_content(&Content::U64(7)).unwrap(), 7);
        assert_eq!(u64::from_content(&Content::I64(7)).unwrap(), 7);
        assert!(u64::from_content(&Content::I64(-1)).is_err());
    }

    #[test]
    fn tuples_and_maps() {
        let v = ("a".to_string(), vec![1u8, 2]);
        let c = v.to_content();
        let back: (String, Vec<u8>) = Deserialize::from_content(&c).unwrap();
        assert_eq!(back, v);

        let mut m = BTreeMap::new();
        m.insert("k".to_string(), 3i64);
        let back: BTreeMap<String, i64> = Deserialize::from_content(&m.to_content()).unwrap();
        assert_eq!(back, m);
    }
}
