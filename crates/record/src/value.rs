//! Dynamically-typed field values.

use papar_config::input::FieldType;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

use crate::{CodecError, Result};

/// Longest string [`SmallStr`] stores without a heap allocation.
pub const INLINE_STR_CAP: usize = 14;

/// An immutable UTF-8 string of 16 bytes: up to [`INLINE_STR_CAP`] bytes
/// are stored in place, longer strings behind one pointer.
///
/// Vertex ids and other short keys therefore cost no allocation, and a
/// [`Value`] stays 16 bytes. Every comparison, hash and rendering goes
/// through [`SmallStr::as_str`], so a `SmallStr` behaves exactly like the
/// `String` with the same contents.
#[derive(Clone)]
pub struct SmallStr(Repr);

/// Private so that inline bytes are only ever copied from a `str`.
#[derive(Clone)]
enum Repr {
    /// `bytes[..len]` is the string.
    Inline {
        len: u8,
        bytes: [u8; INLINE_STR_CAP],
    },
    /// A string longer than [`INLINE_STR_CAP`] bytes, behind a thin
    /// pointer: a `String` or `Box<str>` here would make the enum 24 bytes.
    #[allow(clippy::box_collection)]
    Heap(Box<String>),
}

impl SmallStr {
    /// The string.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => std::str::from_utf8(&bytes[..usize::from(*len)])
                .expect("inline bytes are copied from a str"),
            Repr::Heap(s) => s,
        }
    }
}

impl Deref for SmallStr {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for SmallStr {
    fn from(s: &str) -> Self {
        if s.len() > INLINE_STR_CAP {
            return SmallStr(Repr::Heap(Box::new(s.to_string())));
        }
        let mut bytes = [0; INLINE_STR_CAP];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        SmallStr(Repr::Inline {
            len: s.len() as u8,
            bytes,
        })
    }
}

impl From<String> for SmallStr {
    fn from(s: String) -> Self {
        if s.len() > INLINE_STR_CAP {
            SmallStr(Repr::Heap(Box::new(s)))
        } else {
            SmallStr::from(s.as_str())
        }
    }
}

impl PartialEq for SmallStr {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for SmallStr {}

impl PartialOrd for SmallStr {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SmallStr {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for SmallStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Display for SmallStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for SmallStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// One field value of a record.
///
/// Values carry their own runtime type; the schema says which type each
/// column is supposed to have. `Value` implements a *total* order (doubles
/// compare with `f64::total_cmp`) so any field can serve as a sort/group
/// key, which is exactly how the paper's operators use fields.
#[derive(Debug, Clone)]
pub enum Value {
    /// 32-bit signed integer (`integer`).
    Int(i32),
    /// 64-bit signed integer (`long`).
    Long(i64),
    /// 64-bit float (`double`).
    Double(f64),
    /// UTF-8 string (`String`).
    Str(SmallStr),
}

// A record stores its values in place; keep them two words wide.
const _: () = assert!(std::mem::size_of::<SmallStr>() == 16);
const _: () = assert!(std::mem::size_of::<Value>() == 16);

impl PartialEq for Value {
    /// Equality is defined through [`Ord::cmp`] so that `Eq`, `Ord` and
    /// `Hash` stay mutually consistent (e.g. `Int(7) == Long(7)`, and NaN
    /// equals itself under the total order).
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
    /// Total order: same-type values compare naturally (integers across
    /// widths compare numerically); across types the order is
    /// numeric < string, which only matters for defensive determinism —
    /// well-typed datasets never mix types within a column.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Long(a), Long(b)) => a.cmp(b),
            (Int(a), Long(b)) => i64::from(*a).cmp(b),
            (Long(a), Int(b)) => a.cmp(&i64::from(*b)),
            (Double(a), Double(b)) => a.total_cmp(b),
            (Int(a), Double(b)) => f64::from(*a).total_cmp(b),
            (Double(a), Int(b)) => a.total_cmp(&f64::from(*b)),
            (Long(a), Double(b)) => (*a as f64).total_cmp(b),
            (Double(a), Long(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Str(_), _) => Ordering::Greater,
            (_, Str(_)) => Ordering::Less,
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Int(v) => {
                0u8.hash(state);
                i64::from(*v).hash(state);
            }
            Value::Long(v) => {
                0u8.hash(state);
                v.hash(state);
            }
            Value::Double(v) => {
                1u8.hash(state);
                v.to_bits().hash(state);
            }
            Value::Str(v) => {
                2u8.hash(state);
                v.hash(state);
            }
        }
    }
}

impl Value {
    /// Runtime type of this value.
    pub fn field_type(&self) -> FieldType {
        match self {
            Value::Int(_) => FieldType::Integer,
            Value::Long(_) => FieldType::Long,
            Value::Double(_) => FieldType::Double,
            Value::Str(_) => FieldType::Str,
        }
    }

    /// Parse a text token according to the declared type.
    pub fn parse_typed(text: &str, ty: FieldType) -> Result<Value> {
        match ty {
            FieldType::Integer => text
                .trim()
                .parse::<i32>()
                .map(Value::Int)
                .map_err(|_| CodecError(format!("'{text}' is not an integer"))),
            FieldType::Long => text
                .trim()
                .parse::<i64>()
                .map(Value::Long)
                .map_err(|_| CodecError(format!("'{text}' is not a long"))),
            FieldType::Double => text
                .trim()
                .parse::<f64>()
                .map(Value::Double)
                .map_err(|_| CodecError(format!("'{text}' is not a double"))),
            FieldType::Str => Ok(Value::Str(text.into())),
        }
    }

    /// Numeric view as i64, when the value is an integer type.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(i64::from(*v)),
            Value::Long(v) => Some(*v),
            _ => None,
        }
    }

    /// Numeric view as f64 for any numeric value.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(f64::from(*v)),
            Value::Long(v) => Some(*v as f64),
            Value::Double(v) => Some(*v),
            Value::Str(_) => None,
        }
    }

    /// String view, when the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Bytes this value occupies in the fixed-width binary file format, if
    /// it has a fixed width.
    pub fn binary_width(&self) -> Option<usize> {
        self.field_type().binary_width()
    }

    /// A process-independent 64-bit hash (FNV-1a over the value's tagged
    /// bytes). `Int` and `Long` holding the same number hash identically,
    /// consistent with [`PartialEq`].
    ///
    /// Both PaPar's hash-based distribution policies and the native
    /// application partitioners use this function, so "PaPar produces the
    /// same partitions" is checkable bit-for-bit.
    pub fn stable_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf29ce484222325;
        const FNV_PRIME: u64 = 0x100000001b3;
        let mut h = FNV_OFFSET;
        let mut eat = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        };
        match self {
            Value::Int(v) => {
                eat(0);
                for b in i64::from(*v).to_le_bytes() {
                    eat(b);
                }
            }
            Value::Long(v) => {
                eat(0);
                for b in v.to_le_bytes() {
                    eat(b);
                }
            }
            Value::Double(v) => {
                eat(1);
                for b in v.to_bits().to_le_bytes() {
                    eat(b);
                }
            }
            Value::Str(s) => {
                eat(2);
                for &b in s.as_bytes() {
                    eat(b);
                }
            }
        }
        h
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Long(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Long(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_within_types() {
        assert!(Value::Int(3) < Value::Int(5));
        assert!(Value::Str("a".into()) < Value::Str("b".into()));
        assert!(Value::Double(1.5) < Value::Double(2.0));
        assert!(Value::Long(-1) < Value::Long(0));
    }

    #[test]
    fn ordering_across_integer_widths_is_numeric() {
        assert_eq!(Value::Int(7).cmp(&Value::Long(7)), Ordering::Equal);
        assert!(Value::Int(7) < Value::Long(8));
        assert!(Value::Long(100) > Value::Int(99));
    }

    #[test]
    fn double_total_order_handles_nan() {
        let nan = Value::Double(f64::NAN);
        let one = Value::Double(1.0);
        // total_cmp puts NaN above all ordinary values; what matters here is
        // that the comparison is deterministic and never panics.
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_ne!(nan.cmp(&one), Ordering::Equal);
    }

    #[test]
    fn parse_typed_roundtrips() {
        assert_eq!(
            Value::parse_typed("42", FieldType::Integer).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            Value::parse_typed("-7", FieldType::Long).unwrap(),
            Value::Long(-7)
        );
        assert_eq!(
            Value::parse_typed("2.5", FieldType::Double).unwrap(),
            Value::Double(2.5)
        );
        assert_eq!(
            Value::parse_typed("v12", FieldType::Str).unwrap(),
            Value::Str("v12".into())
        );
        assert!(Value::parse_typed("abc", FieldType::Integer).is_err());
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_i64(), Some(3));
        assert_eq!(Value::Long(9).as_i64(), Some(9));
        assert_eq!(Value::Double(1.5).as_i64(), None);
        assert_eq!(Value::Double(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Int(1).as_str(), None);
    }

    #[test]
    fn display_matches_text_format() {
        assert_eq!(Value::Int(94).to_string(), "94");
        assert_eq!(Value::Str("v1".into()).to_string(), "v1");
    }

    #[test]
    fn hash_consistent_with_eq_across_widths() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        // Int(7) and Long(7) compare equal under cmp, so they must hash equal
        // for use as grouping keys.
        assert_eq!(h(&Value::Int(7)), h(&Value::Long(7)));
    }

    #[test]
    fn small_str_is_inline_up_to_fourteen_bytes() {
        let inline = |s: &SmallStr| matches!(s.0, Repr::Inline { .. });
        // "€" is three bytes: at offset 12 it straddles byte 14.
        let straddle = "abcdefghijkl€";
        assert_eq!(straddle.len(), 15);
        for (s, fits) in [
            ("", true),
            ("abcdefghijklmn", true),
            ("abcdefghijklmno", false),
            ("abcdefghijkl", true),
            ("abcdefghijké", true),
            (straddle, false),
        ] {
            for small in [SmallStr::from(s), SmallStr::from(s.to_string())] {
                assert_eq!(small.as_str(), s);
                assert_eq!(&*small, s);
                assert_eq!(inline(&small), fits, "{s:?}");
            }
        }
        assert_eq!(
            SmallStr::from("abcdefghijklmn"),
            SmallStr(Repr::Heap(Box::new("abcdefghijklmn".into())))
        );
    }
}
