//! Property tests for the record model: total-order laws for `Value`,
//! codec round-trips, and pack/compress invariants.

use papar_record::codec;
use papar_record::{prefix, rec, Record, Schema, Value};
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i32>().prop_map(Value::Int),
        any::<i64>().prop_map(Value::Long),
        any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(Value::Double),
        "[ -~]{0,16}".prop_map(Value::from),
    ]
}

/// Broader key strategy for the prefix-agreement property: biased toward
/// collisions (ties) and edge shapes — negative ints, Longs around the
/// 2^53 exactness boundary, empty and multi-byte-UTF-8 strings, strings
/// sharing a long common prefix.
fn key_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i32>().prop_map(Value::Int),
        (-16i32..16).prop_map(Value::Int),
        any::<i64>().prop_map(Value::Long),
        ((1i64 << 53) - 4..(1i64 << 53) + 4).prop_map(Value::Long),
        any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(Value::Double),
        (-4i64..4).prop_map(|x| Value::Double(x as f64)),
        "[ -~]{0,16}".prop_map(Value::from),
        "(müll|straße|)[a-b]{0,12}".prop_map(Value::from),
        "common-prefix-[a-c]{0,4}".prop_map(Value::from),
        Just(Value::Str("".into())),
    ]
}

/// Strings on both sides of the 14-byte inline limit, with multi-byte
/// characters that can straddle it.
fn string_strategy() -> impl Strategy<Value = String> {
    prop_oneof!["[ -~]{0,20}", "[a-bé€𝄞]{0,8}", "abcdefghijk[é€𝄞][a-b]{0,2}"]
}

fn std_hash(h: impl std::hash::Hash) -> u64 {
    use std::hash::Hasher;
    let mut s = std::collections::hash_map::DefaultHasher::new();
    h.hash(&mut s);
    s.finish()
}

proptest! {
    /// A `Value::Str` orders, hashes and renders exactly like the `String`
    /// it was built from, whether its bytes sit inline or on the heap.
    #[test]
    fn str_value_behaves_like_its_string(a in string_strategy(), b in string_strategy()) {
        let (va, vb) = (Value::from(a.as_str()), Value::from(b.clone()));
        prop_assert_eq!(va.cmp(&vb), a.cmp(&b));
        prop_assert_eq!(va == vb, a == b);
        prop_assert_eq!(std_hash(&va), std_hash((2u8, &a)));
        let mut fnv = 0xcbf2_9ce4_8422_2325u64;
        for byte in std::iter::once(2u8).chain(a.bytes()) {
            fnv = (fnv ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
        prop_assert_eq!(va.stable_hash(), fnv);
        prop_assert_eq!(va.to_string(), a.clone());
        prop_assert_eq!(format!("{:?}", va), format!("Str({:?})", a));
        prop_assert_eq!(va.as_str(), Some(a.as_str()));
    }

    /// Value's Ord is a total order: antisymmetric, transitive, and total.
    #[test]
    fn value_total_order_laws(a in value_strategy(), b in value_strategy(), c in value_strategy()) {
        use std::cmp::Ordering::*;
        // Totality + antisymmetry.
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // Transitivity (check the <= relation).
        if a.cmp(&b) != Greater && b.cmp(&c) != Greater {
            prop_assert_ne!(a.cmp(&c), Greater, "{:?} <= {:?} <= {:?}", a, b, c);
        }
        // Reflexivity.
        prop_assert_eq!(a.cmp(&a), Equal);
    }

    /// Text codec round-trips arbitrary integer/double rows.
    #[test]
    fn text_codec_roundtrip(rows in prop::collection::vec((any::<i32>(), any::<i32>()), 0..50)) {
        let cfg = papar_config::InputConfig::parse_str(r#"
<input id="pair" name="n">
  <input_format>text</input_format>
  <element>
    <value name="a" type="integer"/>
    <delimiter value=","/>
    <value name="b" type="integer"/>
    <delimiter value="\n"/>
  </element>
</input>"#).unwrap();
        let schema = Schema::from_input_config(&cfg);
        let records: Vec<Record> = rows.iter().map(|&(a, b)| rec![a, b]).collect();
        let text = codec::text::write(&cfg, &schema, &records).unwrap();
        let back = codec::text::read(&cfg, &schema, &text).unwrap();
        prop_assert_eq!(back, records);
    }

    /// The order-preserving key prefix agrees with `Value::cmp`: strict
    /// prefix inequality implies the same strict value inequality, and a
    /// prefix tie with both sides exact implies equal values — the exact
    /// contract the engine's zero-copy sort relies on (ties with an
    /// inexact side are re-checked from decoded keys).
    #[test]
    fn prefix_order_agrees_with_value_cmp(a in key_strategy(), b in key_strategy()) {
        use std::cmp::Ordering::*;
        let pa = prefix::of_value(&a);
        let pb = prefix::of_value(&b);
        match pa.packed66().cmp(&pb.packed66()) {
            Less => prop_assert_eq!(a.cmp(&b), Less, "{:?} vs {:?}", a, b),
            Greater => prop_assert_eq!(a.cmp(&b), Greater, "{:?} vs {:?}", a, b),
            Equal => {
                if pa.exact && pb.exact {
                    prop_assert_eq!(a.cmp(&b), Equal, "{:?} vs {:?}", a, b);
                }
                // An inexact tie promises nothing; the engine decodes.
            }
        }
        // Exactness round-trip: an exact prefix must reproduce under the
        // wire codec (`from_wire` is tested equivalent in the unit tests).
        prop_assert_eq!(prefix::of_value(&a), pa);
    }

    /// Binary codec round-trips arbitrary mixed-width rows.
    #[test]
    fn binary_codec_roundtrip(rows in prop::collection::vec((any::<i32>(), any::<i64>()), 0..50)) {
        let cfg = papar_config::InputConfig::parse_str(r#"
<input id="mixed" name="n">
  <input_format>binary</input_format>
  <start_position>8</start_position>
  <element>
    <value name="a" type="integer"/>
    <value name="b" type="long"/>
  </element>
</input>"#).unwrap();
        let schema = Schema::from_input_config(&cfg);
        let records: Vec<Record> = rows.iter().map(|&(a, b)| rec![a, b]).collect();
        let bytes = codec::binary::write(&cfg, &schema, &records, None).unwrap();
        prop_assert_eq!(bytes.len(), 8 + rows.len() * 12);
        let back = codec::binary::read(&cfg, &schema, &bytes).unwrap();
        prop_assert_eq!(back, records);
    }
}
