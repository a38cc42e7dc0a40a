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

// ---------------------------------------------------------------------------
// Differential and totality tests of the record decoders.
//
// The decoders build each record in place and read fixed-width records at
// field offsets. The reference below is the generic decoder they replaced:
// an empty record and one push per field, every field read through the
// cursor, text fields found with `str::find`. On valid bytes, on every
// truncation of them, on corrupted and on arbitrary bytes, each decoder
// must give the reference's `Ok` value or its error text.
// ---------------------------------------------------------------------------

mod reference {
    use papar_config::input::FieldType;
    use papar_record::view::{ENTRY_PACKED, ENTRY_PACKED_CSC, ENTRY_REC};
    use papar_record::wire::{self, Reader};
    use papar_record::{CodecError, Record, Result, Schema, Value};

    fn field(r: &mut Reader<'_>, ty: FieldType) -> Result<Value> {
        Ok(match ty {
            FieldType::Integer => {
                Value::Int(i32::from_le_bytes(r.read_bytes(4)?.try_into().unwrap()))
            }
            FieldType::Long => {
                Value::Long(i64::from_le_bytes(r.read_bytes(8)?.try_into().unwrap()))
            }
            FieldType::Double => {
                Value::Double(f64::from_le_bytes(r.read_bytes(8)?.try_into().unwrap()))
            }
            FieldType::Str => {
                let len = r.read_u32()? as usize;
                let bytes = r.read_bytes(len)?;
                Value::from(
                    std::str::from_utf8(bytes).map_err(|_| CodecError("invalid UTF-8".into()))?,
                )
            }
        })
    }

    /// `wire::decode_record`.
    pub fn record(r: &mut Reader<'_>, schema: &Schema) -> Result<Record> {
        let mut rec = Record::default();
        for f in schema.fields() {
            rec.push(field(r, f.ty)?);
        }
        Ok(rec)
    }

    fn width(schema: &Schema) -> Option<usize> {
        schema.fields().iter().map(|f| f.ty.binary_width()).sum()
    }

    fn skip_record(r: &mut Reader<'_>, schema: &Schema) -> Result<()> {
        if let Some(w) = width(schema) {
            return r.read_bytes(w).map(drop);
        }
        for f in schema.fields() {
            let len = match f.ty.binary_width() {
                Some(w) => w,
                None => r.read_u32()? as usize,
            };
            r.read_bytes(len)?;
        }
        Ok(())
    }

    /// `EntryView::parse` then `decode_into`, without a CSC key: the
    /// structure is validated first, then the members decoded.
    pub fn entry(buf: &[u8], schema: &Schema) -> Result<(Vec<Record>, usize)> {
        let mut r = Reader::new(buf);
        let tag = r.read_u8()?;
        let start = r.position();
        let count = match tag {
            ENTRY_REC => {
                skip_record(&mut r, schema)?;
                1
            }
            ENTRY_PACKED => {
                wire::skip_value(&mut r)?;
                let count = r.read_u32()? as usize;
                match width(schema) {
                    Some(w) => r.read_bytes(w * count).map(drop)?,
                    None => (0..count).try_for_each(|_| skip_record(&mut r, schema))?,
                }
                count
            }
            ENTRY_PACKED_CSC => {
                return Err(CodecError(
                    "received CSC-compressed entry but no compress_key".into(),
                ))
            }
            t => return Err(CodecError(format!("unknown entry tag {t}"))),
        };
        let end = r.position();
        let mut members = Reader::new(&buf[start..end]);
        if tag == ENTRY_PACKED {
            wire::skip_value(&mut members)?;
            members.read_u32()?;
        }
        let records = (0..count)
            .map(|_| record(&mut members, schema))
            .collect::<Result<_>>()?;
        Ok((records, end))
    }

    /// `codec::binary::read`.
    pub fn binary(start: usize, schema: &Schema, data: &[u8]) -> Result<Vec<Record>> {
        let width = width(schema).expect("fixed-width schema");
        if data.len() < start {
            return Err(CodecError(format!(
                "file is {} bytes but start_position is {start}",
                data.len()
            )));
        }
        let body = &data[start..];
        if !body.len().is_multiple_of(width) {
            return Err(CodecError(format!(
                "trailing {} bytes do not form a whole {width}-byte record",
                body.len() % width
            )));
        }
        body.chunks_exact(width)
            .map(|row| record(&mut Reader::new(row), schema))
            .collect()
    }

    fn next_text_record<'a>(
        schema: &Schema,
        delims: &[String],
        rest: &'a str,
    ) -> Result<Option<(Record, &'a str)>> {
        let mut rec = Record::default();
        let mut cursor = rest;
        for (i, (field, delim)) in schema.fields().iter().zip(delims).enumerate() {
            match cursor.find(delim.as_str()) {
                Some(at) => {
                    rec.push(Value::parse_typed(&cursor[..at], field.ty)?);
                    cursor = &cursor[at + delim.len()..];
                }
                None => {
                    if i == 0 && cursor.trim().is_empty() {
                        return Ok(None);
                    }
                    return Err(CodecError(format!(
                        "truncated record: missing delimiter {delim:?} for field '{}'",
                        field.name
                    )));
                }
            }
        }
        Ok(Some((rec, cursor)))
    }

    /// `codec::text::read`, given one delimiter per field.
    pub fn text(schema: &Schema, delims: &[String], data: &str) -> Result<Vec<Record>> {
        let mut out = Vec::new();
        let mut rest = data;
        while let Some((rec, next)) = next_text_record(schema, delims, rest)? {
            out.push(rec);
            rest = next;
        }
        Ok(out)
    }
}

use papar_config::input::{ElementItem, FieldDef, FieldType, InputConfig, InputFormat};
use papar_config::xml::Span;
use papar_record::batch::block_sizes;
use papar_record::view::{EntryView, ENTRY_PACKED, ENTRY_REC};
use papar_record::wire::{self, Reader};

const TYPES: [FieldType; 4] = [
    FieldType::Integer,
    FieldType::Long,
    FieldType::Double,
    FieldType::Str,
];

/// One-byte delimiters first, then multi-byte ones; none occurs in the
/// text values `cell` generates.
const DELIMS: [&str; 7] = ["\t", ",", "|", "\n", "::", "→", "\r\n"];

fn schema_of(types: &[u8]) -> Schema {
    Schema::new(
        types
            .iter()
            .enumerate()
            .map(|(i, &t)| (format!("f{i}"), TYPES[usize::from(t)]))
            .collect(),
    )
}

/// The value of type `ty` from one generated cell.
fn value_of(ty: FieldType, cell: &(i32, i64, f64, String)) -> Value {
    match ty {
        FieldType::Integer => Value::Int(cell.0),
        FieldType::Long => Value::Long(cell.1),
        FieldType::Double => Value::Double(cell.2),
        FieldType::Str => Value::from(cell.3.as_str()),
    }
}

/// Candidate values for one field: strings of 0, 14 and 15+ bytes, with
/// multi-byte UTF-8 on both sides of the inline limit, and finite doubles,
/// which the text codec renders and parses back exactly.
fn cell() -> impl Strategy<Value = (i32, i64, f64, String)> {
    (
        any::<i32>(),
        any::<i64>(),
        any::<f64>().prop_filter("finite", |f| f.is_finite()),
        prop_oneof![
            Just(String::new()),
            "[a-z]{14}",
            "[a-z]{15,24}",
            "[a-zé€𝄞]{0,10}",
            "abcdefghijk[é€𝄞][a-b]{0,2}",
        ],
    )
}

/// Rows of up to six cells; a schema of `n` fields reads the first `n`.
fn rows() -> impl Strategy<Value = Vec<Vec<(i32, i64, f64, String)>>> {
    prop::collection::vec(prop::collection::vec(cell(), 6..7), 0..6)
}

fn records_of(schema: &Schema, rows: &[Vec<(i32, i64, f64, String)>]) -> Vec<Record> {
    rows.iter()
        .map(|row| {
            Record::new(
                schema
                    .fields()
                    .iter()
                    .zip(row)
                    .map(|(f, cell)| value_of(f.ty, cell))
                    .collect(),
            )
        })
        .collect()
}

/// Equal results with equal value types: `Int(7) == Long(7)` as values,
/// but a decoder must not change a field's type.
fn same<T: PartialEq + std::fmt::Debug>(got: &T, want: &T) -> bool {
    got == want && format!("{got:?}") == format!("{want:?}")
}

/// `wire::decode_record` against the reference: result and cursor.
fn check_decode_record(buf: &[u8], schema: &Schema) -> std::result::Result<(), TestCaseError> {
    let (mut r, mut rr) = (Reader::new(buf), Reader::new(buf));
    let got = wire::decode_record(&mut r, schema);
    let want = reference::record(&mut rr, schema);
    prop_assert!(same(&got, &want), "{:?} vs {:?} on {:?}", got, want, buf);
    prop_assert_eq!(r.position(), rr.position());
    Ok(())
}

/// `EntryView::parse` + `decode_into` against the reference.
fn check_entry(buf: &[u8], schema: &Schema) -> std::result::Result<(), TestCaseError> {
    let mut r = Reader::new(buf);
    let got = EntryView::parse(&mut r, schema, None).and_then(|view| {
        let mut out = Vec::new();
        view.decode_into(&mut out)?;
        assert_eq!(
            view.record_count(),
            out.len(),
            "an entry decodes its counted records"
        );
        Ok((out, r.position()))
    });
    let want = reference::entry(buf, schema);
    prop_assert!(same(&got, &want), "{:?} vs {:?} on {:?}", got, want, buf);
    Ok(())
}

/// Both entry encodings of `records` (one flat entry per record, and one
/// packed group), the encoders being the reference for the bytes.
fn entries(records: &[Record], schema: &Schema) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = records
        .iter()
        .map(|rec| {
            let mut buf = vec![ENTRY_REC];
            wire::encode_record(rec, schema, &mut buf).unwrap();
            buf
        })
        .collect();
    let mut packed = vec![ENTRY_PACKED];
    wire::encode_value(&Value::from("group"), &mut packed);
    packed.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for rec in records {
        wire::encode_record(rec, schema, &mut packed).unwrap();
    }
    out.push(packed);
    out
}

fn binary_cfg(schema: &Schema, start: u64) -> InputConfig {
    InputConfig {
        id: "bin".into(),
        name: String::new(),
        format: InputFormat::Binary,
        start_position: start,
        element: schema
            .fields()
            .iter()
            .map(|f| ElementItem::Field(f.clone()))
            .collect(),
        span: Span::UNKNOWN,
    }
}

fn text_cfg(schema: &Schema, delims: &[String]) -> InputConfig {
    let mut element = Vec::new();
    for (f, d) in schema.fields().iter().zip(delims) {
        element.push(ElementItem::Field(FieldDef::new(f.name.clone(), f.ty)));
        element.push(ElementItem::Delimiter(d.clone()));
    }
    InputConfig {
        id: "txt".into(),
        name: String::new(),
        format: InputFormat::Text,
        start_position: 0,
        element,
        span: Span::UNKNOWN,
    }
}

/// `codec::binary::{read, read_split}` against the reference.
fn check_binary(
    cfg: &InputConfig,
    schema: &Schema,
    data: &[u8],
) -> std::result::Result<(), TestCaseError> {
    let want = reference::binary(cfg.start_position as usize, schema, data);
    let got = codec::binary::read(cfg, schema, data);
    prop_assert!(same(&got, &want), "{:?} vs {:?}", got, want);
    for n in 1..4 {
        let got = codec::binary::read_split(cfg, schema, data, n);
        check_blocks(got, &want, n)?;
    }
    Ok(())
}

/// `codec::text::{read, read_split}` against the reference.
fn check_text(
    cfg: &InputConfig,
    schema: &Schema,
    delims: &[String],
    data: &str,
) -> std::result::Result<(), TestCaseError> {
    let want = reference::text(schema, delims, data);
    let got = codec::text::read(cfg, schema, data);
    prop_assert!(same(&got, &want), "{:?} vs {:?} on {:?}", got, want, data);
    for n in 1..4 {
        let got = codec::text::read_split(cfg, schema, data, n);
        check_blocks(got, &want, n)?;
    }
    Ok(())
}

/// A split read is the whole read cut into `block_sizes` blocks, and fails
/// exactly as the whole read fails.
fn check_blocks(
    got: papar_record::Result<Vec<Vec<Record>>>,
    want: &papar_record::Result<Vec<Record>>,
    n: usize,
) -> std::result::Result<(), TestCaseError> {
    match (got, want) {
        (Ok(blocks), Ok(all)) => {
            let sizes: Vec<usize> = blocks.iter().map(Vec::len).collect();
            prop_assert_eq!(sizes, block_sizes(all.len(), n).collect::<Vec<_>>());
            let flat = blocks.concat();
            prop_assert!(same(&flat, all), "{:?} vs {:?}", flat, all);
        }
        (got, want) => {
            let got = got.map(|b| b.concat());
            prop_assert!(same(&got, want), "{:?} vs {:?}", got, want);
        }
    }
    Ok(())
}

proptest! {
    /// Wire records and shuffle entries over schemas of 1–6 fields, inline
    /// and spilled, of all four types: valid bytes round-trip, and every
    /// truncation and every single corrupted byte decodes exactly as the
    /// reference decodes it.
    #[test]
    fn wire_decoders_agree_with_the_reference(
        types in prop::collection::vec(0u8..4, 1..7),
        rows in rows(),
        flip in (any::<usize>(), any::<u8>()),
    ) {
        let schema = schema_of(&types);
        let records = records_of(&schema, &rows);
        for rec in &records {
            let mut buf = Vec::new();
            wire::encode_record(rec, &schema, &mut buf).unwrap();
            let mut r = Reader::new(&buf);
            prop_assert!(same(&wire::decode_record(&mut r, &schema), &Ok(rec.clone())));
            prop_assert_eq!(r.remaining(), 0);
            for cut in 0..=buf.len() {
                check_decode_record(&buf[..cut], &schema)?;
            }
        }
        let entries = entries(&records, &schema);
        for buf in &entries {
            for cut in 0..=buf.len() {
                check_entry(&buf[..cut], &schema)?;
            }
            let mut bad = buf.clone();
            let at = flip.0 % bad.len();
            bad[at] ^= flip.1.max(1);
            check_entry(&bad, &schema)?;
            check_decode_record(&bad[1..], &schema)?;
        }
        let group = entries.last().unwrap();
        let view = EntryView::parse(&mut Reader::new(group), &schema, None).unwrap();
        let mut members = Vec::new();
        view.decode_into(&mut members).unwrap();
        prop_assert!(same(&members, &records));
    }

    /// Arbitrary bytes through the wire decoders: never a panic, and the
    /// reference's value or error text.
    #[test]
    fn wire_decoders_are_total_on_arbitrary_bytes(
        types in prop::collection::vec(0u8..4, 1..7),
        bytes in prop::collection::vec(any::<u8>(), 0..64),
        tag in 0u8..4,
    ) {
        let schema = schema_of(&types);
        check_decode_record(&bytes, &schema)?;
        check_entry(&bytes, &schema)?;
        let mut tagged = vec![tag];
        tagged.extend_from_slice(&bytes);
        check_entry(&tagged, &schema)?;
    }

    /// Fixed-width binary files: valid files round-trip through `read` and
    /// `read_split`; every truncation and arbitrary bytes read exactly as
    /// the reference reads them.
    #[test]
    fn binary_codec_agrees_with_the_reference(
        types in prop::collection::vec(0u8..3, 1..7),
        rows in rows(),
        start in 0u64..4,
        junk in prop::collection::vec(any::<u8>(), 0..80),
    ) {
        let schema = schema_of(&types);
        let cfg = binary_cfg(&schema, start);
        let records = records_of(&schema, &rows);
        let bytes = codec::binary::write(&cfg, &schema, &records, None).unwrap();
        prop_assert!(same(&codec::binary::read(&cfg, &schema, &bytes), &Ok(records.clone())));
        for cut in 0..=bytes.len() {
            check_binary(&cfg, &schema, &bytes[..cut])?;
        }
        check_binary(&cfg, &schema, &junk)?;
    }

    /// Delimited text with one-byte and multi-byte delimiters: valid text
    /// round-trips through `read` and `read_split`; every truncation and
    /// arbitrary text read exactly as the reference reads them.
    #[test]
    fn text_codec_agrees_with_the_reference(
        types in prop::collection::vec(0u8..4, 1..7),
        delim_picks in prop::collection::vec(0usize..DELIMS.len(), 6..7),
        rows in rows(),
        junk in "[0-9a-c,|:\t\n\r .→é€-]{0,48}",
    ) {
        let schema = schema_of(&types);
        let delims: Vec<String> = delim_picks[..schema.len()]
            .iter()
            .map(|&i| DELIMS[i].to_string())
            .collect();
        let cfg = text_cfg(&schema, &delims);
        let records = records_of(&schema, &rows);
        let text = codec::text::write(&cfg, &schema, &records).unwrap();
        prop_assert!(same(&codec::text::read(&cfg, &schema, &text), &Ok(records.clone())));
        for (cut, _) in text.char_indices().chain([(text.len(), ' ')]) {
            check_text(&cfg, &schema, &delims, &text[..cut])?;
        }
        check_text(&cfg, &schema, &delims, &junk)?;
        check_text(&cfg, &schema, &delims, &format!("{text}{junk}"))?;
    }
}
