//! Order-preserving key prefixes: a fixed-width, memcmp-able summary of a
//! [`Value`] that lets the shuffle sort and the range partitioner compare
//! raw integers instead of decoded heap values.
//!
//! A prefix is a `(class, bits)` pair — compare `class` first, then `bits`
//! as unsigned integers — plus an `exact` flag:
//!
//! | `Value`     | class | bits                                   | exact                     |
//! |-------------|-------|----------------------------------------|---------------------------|
//! | `Int(i)`    | 0     | order bits of `i as f64`               | always                    |
//! | `Long(l)`   | 0     | order bits of `l as f64`               | iff `l` survives f64 round-trip |
//! | `Double(d)` | 0     | order bits of `d`                      | always                    |
//! | `Str(s)`    | 1     | first 8 bytes, big-endian, NUL-padded  | iff `len < 8` and no NUL byte |
//!
//! "Order bits" is the standard IEEE-754 total-order transform (sign-flip
//! for non-negatives, complement for negatives) so `u64` comparison agrees
//! with [`f64::total_cmp`]. This mirrors `Value::cmp` exactly: numerics of
//! any type compare through f64 `total_cmp` cross-type, strings sort above
//! every numeric, and `i64/i32 → f64` conversion is monotone.
//!
//! **Order contract** (tested here and property-tested in
//! `tests/proptests.rs`): for any values `a`, `b`,
//!
//! * `prefix(a) < prefix(b)` implies `a.cmp(&b) == Less` (and symmetrically
//!   for `Greater`) — a strict prefix inequality is always truthful;
//! * `prefix(a) == prefix(b)` with *both* sides `exact` implies
//!   `a.cmp(&b) == Equal` — an all-exact tie run needs no decode.
//!
//! One-sided exactness is *not* enough: `Long(2^53)` round-trips through
//! f64 (exact) yet shares order bits with the lossy `Long(2^53 + 1)`, and
//! `"a"` (exact) shares a padded prefix with `"a\0"`. So a sort must fall
//! back to `Value::cmp` for any tie run containing at least one inexact
//! member, and may skip the decode only when every member is exact.

use papar_config::input::FieldType;

use crate::value::Value;
use crate::wire::{self, Reader};
use crate::Result;

/// Class bits: every numeric shares one class so cross-type numeric
/// comparisons stay inside the `bits` field; strings sort strictly above.
pub const CLASS_NUMERIC: u8 = 0;
/// Class bits for strings (`Value::Str > ` every numeric in `Value::cmp`).
pub const CLASS_STR: u8 = 1;

/// A fixed-width order-preserving summary of one [`Value`]. Deliberately
/// not `Ord`: the order relation is `(class, bits)` only (`exact` is
/// metadata, not part of the key) — compare via [`KeyPrefix::packed66`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyPrefix {
    /// Type class; compared before `bits`.
    pub class: u8,
    /// Order-preserving payload, compared as an unsigned integer.
    pub bits: u64,
    /// True when a prefix tie between two values that are *both* exact
    /// proves `Value::cmp` equality (see the module docs — one-sided
    /// exactness is not sufficient).
    pub exact: bool,
}

impl KeyPrefix {
    /// Pack class + payload into a single sortable `u66`-in-`u128` (class in
    /// bits 65..64, payload in bits 63..0). Used by the packed sort kernels.
    pub fn packed66(&self) -> u128 {
        ((self.class as u128) << 64) | self.bits as u128
    }
}

/// IEEE-754 total-order transform: maps `f64` bits to a `u64` whose unsigned
/// order equals `f64::total_cmp` order (negatives complemented below all
/// non-negatives, which get their sign bit set).
#[inline]
pub fn f64_order_bits(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

#[inline]
fn str_prefix(bytes: &[u8]) -> (u64, bool) {
    let mut buf = [0u8; 8];
    let take = bytes.len().min(8);
    buf[..take].copy_from_slice(&bytes[..take]);
    // Big-endian pack: u64 compare == memcmp on the padded 8 bytes. Exact
    // only when the string fits *strictly* (so its padding carries at least
    // one NUL) and contains no NUL itself: then any unequal tie partner
    // must either place a byte where this prefix has its pad NUL (prefixes
    // differ) or carry a NUL in its own first 8 bytes (partner is flagged
    // inexact). A length-8 string is never exact — "abcdefgh" ties with
    // "abcdefghz" without either containing a NUL.
    let exact = bytes.len() < 8 && !bytes.contains(&0);
    (u64::from_be_bytes(buf), exact)
}

/// Compute the order-preserving prefix of a decoded value.
pub fn of_value(v: &Value) -> KeyPrefix {
    match v {
        Value::Int(i) => KeyPrefix {
            class: CLASS_NUMERIC,
            bits: f64_order_bits(*i as f64),
            // Every i32 is exactly representable in f64: a tie between two
            // exact numerics means equal f64s, hence equal values under
            // every branch of Value::cmp (i64 or total_cmp).
            exact: true,
        },
        Value::Long(l) => KeyPrefix {
            class: CLASS_NUMERIC,
            bits: f64_order_bits(*l as f64),
            exact: (*l as f64) as i64 == *l,
        },
        Value::Double(d) => KeyPrefix {
            class: CLASS_NUMERIC,
            bits: f64_order_bits(*d),
            // total_cmp equality at equal bits; Value::cmp routes every
            // comparison involving a Double through total_cmp.
            exact: true,
        },
        Value::Str(s) => {
            let (bits, exact) = str_prefix(s.as_bytes());
            KeyPrefix {
                class: CLASS_STR,
                bits,
                exact,
            }
        }
    }
}

/// Read one *tagged* key from the wire and produce its prefix without
/// decoding or allocating; the cursor ends just past the key. Byte-for-byte
/// equivalent to `of_value(&decode_value(r)?)` (tested below).
pub fn from_wire(r: &mut Reader<'_>) -> Result<KeyPrefix> {
    let ty = wire::tag_type(r.read_u8()?)?;
    from_field(r, ty)
}

/// Read one *untagged* field of type `ty` — a key inside a record — and
/// produce its prefix without decoding or allocating; the cursor ends just
/// past the field. Equivalent to `of_value(&decode_field(r, ty)?)`.
#[inline]
pub fn from_field(r: &mut Reader<'_>, ty: FieldType) -> Result<KeyPrefix> {
    Ok(match ty {
        FieldType::Integer => of_value(&Value::Int(r.i32()?)),
        FieldType::Long => of_value(&Value::Long(r.i64()?)),
        FieldType::Double => of_value(&Value::Double(r.f64()?)),
        FieldType::Str => {
            let len = r.read_len()?;
            let (bits, exact) = str_prefix(r.read_bytes(len)?);
            KeyPrefix {
                class: CLASS_STR,
                bits,
                exact,
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    fn check_agrees(a: &Value, b: &Value) {
        let (pa, pb) = (of_value(a), of_value(b));
        match pa.packed66().cmp(&pb.packed66()) {
            Ordering::Less => assert_eq!(a.cmp(b), Ordering::Less, "{a:?} vs {b:?}"),
            Ordering::Greater => assert_eq!(a.cmp(b), Ordering::Greater, "{a:?} vs {b:?}"),
            Ordering::Equal => {
                if pa.exact && pb.exact {
                    assert_eq!(a.cmp(b), Ordering::Equal, "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn prefix_order_agrees_with_value_cmp_on_edge_cases() {
        let vals = [
            Value::Int(0),
            Value::Int(-1),
            Value::Int(i32::MIN),
            Value::Int(i32::MAX),
            Value::Long(0),
            Value::Long(-1),
            Value::Long(i64::MIN),
            Value::Long(i64::MAX),
            Value::Long((1 << 53) + 1), // f64-lossy
            Value::Long(-(1 << 53) - 1),
            Value::Double(0.0),
            Value::Double(-0.0),
            Value::Double(f64::NEG_INFINITY),
            Value::Double(f64::INFINITY),
            Value::Double(f64::NAN),
            Value::Double(-f64::NAN),
            Value::Double(1.5),
            Value::Double(-1.5),
            Value::Str("".into()),
            Value::Str("a".into()),
            Value::Str("a\0".into()),
            Value::Str("abcdefgh".into()),
            Value::Str("abcdefghi".into()),
            Value::Str("abcdefgi".into()),
            Value::Str("München".into()),
        ];
        for a in &vals {
            for b in &vals {
                check_agrees(a, b);
            }
        }
    }

    #[test]
    fn lossy_long_ties_are_flagged_inexact() {
        let a = Value::Long((1 << 53) + 1);
        let b = Value::Long(1 << 53);
        let (pa, pb) = (of_value(&a), of_value(&b));
        assert_eq!(pa.class, pb.class);
        assert_eq!(pa.bits, pb.bits, "rounds to the same f64");
        assert!(!pa.exact);
        assert!(pb.exact, "2^53 round-trips exactly");
        // The tie is resolvable because at least one side knows it is lossy.
        assert_eq!(a.cmp(&b), Ordering::Greater);
    }

    #[test]
    fn string_prefix_is_memcmp_order() {
        let cases = ["", "a", "ab", "abcdefgh", "abcdefghz", "b", "\u{10348}"];
        for x in cases {
            for y in cases {
                check_agrees(&Value::Str(x.into()), &Value::Str(y.into()));
            }
        }
        assert!(of_value(&Value::Str("hi".into())).exact);
        assert!(of_value(&Value::Str("".into())).exact);
        assert!(
            !of_value(&Value::Str("abcdefgh".into())).exact,
            "length-8 strings tie with longer extensions"
        );
        assert!(!of_value(&Value::Str("123456789".into())).exact);
        assert!(!of_value(&Value::Str("a\0".into())).exact);
    }

    #[test]
    fn from_wire_matches_of_value_and_leaves_cursor_past_key() -> Result<()> {
        for v in [
            Value::Int(-7),
            Value::Long(1 << 60),
            Value::Double(-2.25),
            Value::Str("shuffle".into()),
            Value::Str("".into()),
        ] {
            let mut buf = Vec::new();
            wire::encode_value(&v, &mut buf)?;
            buf.extend_from_slice(b"tail");
            let mut r = Reader::new(&buf);
            let p = from_wire(&mut r)?;
            assert_eq!(p, of_value(&v), "{v:?}");
            assert_eq!(r.remaining(), 4, "cursor must stop exactly past {v:?}");
            // Untagged, as a record field: the same prefix.
            let mut r = Reader::new(&buf[1..]);
            let ty = wire::tag_type(buf[0])?;
            assert_eq!(from_field(&mut r, ty)?, p, "{v:?}");
            assert_eq!(r.remaining(), 4, "cursor must stop exactly past {v:?}");
        }
        assert!(from_wire(&mut Reader::new(&[9])).is_err());
        Ok(())
    }

    #[test]
    fn packed66_orders_like_class_then_bits() {
        let s = of_value(&Value::Str("a".into()));
        let n = of_value(&Value::Double(f64::INFINITY));
        assert!(s.packed66() > n.packed66(), "strings above all numerics");
        let lo = of_value(&Value::Int(-5));
        let hi = of_value(&Value::Int(5));
        assert!(lo.packed66() < hi.packed66());
    }
}
