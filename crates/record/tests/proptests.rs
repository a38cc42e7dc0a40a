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

    /// A string length: LEB128, seven bits a byte, low bits first, at
    /// most five bytes; its last byte is not zero unless it is the only
    /// one, and its value is at most `u32::MAX`.
    pub fn len(r: &mut Reader<'_>) -> Result<usize> {
        let mut value = 0u64;
        for i in 0..5 {
            let b = r.read_u8()?;
            value |= u64::from(b & 0x7f) << (7 * i);
            if b & 0x80 == 0 {
                if i > 0 && b == 0 {
                    return Err(CodecError(
                        "string length is not canonical: its last byte is zero".into(),
                    ));
                }
                if value > u64::from(u32::MAX) {
                    break;
                }
                return Ok(value as usize);
            }
        }
        Err(CodecError("string length exceeds u32::MAX".into()))
    }

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
                let len = len(r)?;
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
                None => len(r)?,
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
use papar_record::batch::{block_sizes, Batch, Rows};
use papar_record::compress;
use papar_record::packed::{pack, unpack, PackedRecord};
use papar_record::view::{EntryView, ValueView, ENTRY_PACKED, ENTRY_PACKED_CSC, ENTRY_REC};
use papar_record::wire::{self, Reader};
use std::sync::Arc;

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
/// multi-byte UTF-8 on both sides of the inline limit, strings around 128
/// bytes, whose length takes one or two bytes, and finite doubles, which
/// the text codec renders and parses back exactly.
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
            "[a-z]{124,132}",
        ],
    )
}

/// Rows of up to six cells; a schema of `n` fields reads the first `n`.
fn rows() -> impl Strategy<Value = Vec<Vec<(i32, i64, f64, String)>>> {
    prop::collection::vec(prop::collection::vec(cell(), 6..7), 0..6)
}

/// One fixed cell, for rows a test builds by hand.
const CELL: (i32, i64, f64, String) = (7, -7, 0.5, String::new());

/// One row of [`CELL`]s.
fn rows_one() -> Vec<Vec<(i32, i64, f64, String)>> {
    vec![vec![CELL; 6]]
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
fn check_entry(buf: &[u8], schema: &Arc<Schema>) -> std::result::Result<(), TestCaseError> {
    let mut r = Reader::new(buf);
    let got = (r.read_u8())
        .and_then(|tag| EntryView::parse(&mut r, tag, schema, None))
        .and_then(|view| {
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
    wire::encode_value(&Value::from("group"), &mut packed).unwrap();
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

/// A split read's executor on `threads` scoped threads, each decoding a
/// contiguous run of blocks, the last run spawned first: blocks decode
/// concurrently and out of order, and their results land in block order.
fn on_threads(
    threads: usize,
) -> impl FnOnce(usize, &codec::DecodeBlock<'_>) -> codec::BlockResults {
    move |n: usize, decode: &codec::DecodeBlock<'_>| {
        let chunk = n.div_ceil(threads).max(1);
        let mut slots: Vec<Option<_>> = (0..n).map(|_| None).collect();
        std::thread::scope(|s| {
            for (c, part) in slots.chunks_mut(chunk).enumerate().rev() {
                s.spawn(move || {
                    for (off, slot) in part.iter_mut().enumerate() {
                        *slot = Some(decode(c * chunk + off));
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every block decoded"))
            .collect()
    }
}

/// `codec::binary::read` against the reference.
fn check_binary(
    cfg: &InputConfig,
    schema: &Schema,
    data: &[u8],
) -> std::result::Result<(), TestCaseError> {
    let want = reference::binary(cfg.start_position as usize, schema, data);
    let got = codec::binary::read(cfg, schema, data);
    prop_assert!(same(&got, &want), "{:?} vs {:?}", got, want);
    Ok(())
}

/// `codec::text::read` against the reference, and the rows
/// `codec::text::read_rows_on` loads (in 1–3 blocks, on 1 and 4 threads)
/// against `read`: the same records, or the same first error.
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
        for threads in [1, 4] {
            check_blocks(read_rows(cfg, schema, data, n, threads), &want, n)?;
        }
    }
    Ok(())
}

/// `codec::text::read_rows_on` into `n` blocks on `threads` threads.
fn read_rows(
    cfg: &InputConfig,
    schema: &Schema,
    data: &str,
    n: usize,
    threads: usize,
) -> papar_record::Result<Vec<Rows>> {
    let schema = Arc::new(schema.clone());
    codec::text::read_rows_on(cfg, &schema, data, n, on_threads(threads))
}

/// What may follow the last line of a block-encoding case: nothing,
/// whitespace, or a record the count pass cannot delimit.
const TAILS: [&str; 4] = ["", " \n", "7,x", "8"];

/// A split load is the whole read cut into `block_sizes` blocks of rows,
/// and fails exactly as the whole read fails.
fn check_blocks(
    got: papar_record::Result<Vec<Rows>>,
    want: &papar_record::Result<Vec<Record>>,
    n: usize,
) -> std::result::Result<(), TestCaseError> {
    match (got, want) {
        (Ok(blocks), Ok(all)) => {
            let sizes: Vec<usize> = blocks.iter().map(Rows::len).collect();
            prop_assert_eq!(sizes, block_sizes(all.len(), n).collect::<Vec<_>>());
            let flat: Vec<Record> = blocks.iter().flat_map(Rows::to_records).collect();
            prop_assert!(same(&flat, all), "{:?} vs {:?}", flat, all);
        }
        (got, want) => {
            let got = got.map(|b| b.iter().flat_map(Rows::to_records).collect::<Vec<_>>());
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
        let schema = Arc::new(schema_of(&types));
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
        let mut r = Reader::new(group);
        let tag = r.read_u8().unwrap();
        let view = EntryView::parse(&mut r, tag, &schema, None).unwrap();
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
        let schema = Arc::new(schema_of(&types));
        check_decode_record(&bytes, &schema)?;
        check_entry(&bytes, &schema)?;
        let mut tagged = vec![tag];
        tagged.extend_from_slice(&bytes);
        check_entry(&tagged, &schema)?;
    }

    /// Fixed-width binary files: valid files round-trip through `read`;
    /// every truncation and arbitrary bytes read exactly as the reference
    /// reads them.
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
    /// round-trips through `read` and loads as the same rows; every
    /// truncation and arbitrary text read exactly as the reference reads
    /// them, and load as `read` reads them (same records, same first
    /// error) at 1 and 4 threads.
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

    /// Block encoding at any (blocks, threads) is `read` cut into
    /// `block_sizes` blocks, and a file with malformed records in several
    /// blocks — each malformed differently — fails with `read`'s error:
    /// the first malformed record in file order, not whichever block
    /// finished first or last.
    #[test]
    fn block_decoding_on_threads_is_the_whole_read(
        lines in prop::collection::vec((any::<i32>(), 0u8..12), 0..600),
        tail in 0usize..TAILS.len(),
        blocks in 1usize..9,
        threads in 1usize..5,
    ) {
        let schema = Schema::new(vec![("id", FieldType::Integer), ("name", FieldType::Str)]);
        let cfg = text_cfg(&schema, &[",".to_string(), "\n".to_string()]);
        let mut text = String::new();
        for (i, (id, kind)) in lines.iter().enumerate() {
            if *kind == 0 {
                text.push_str(&format!("bad{i},v\n"));
            } else {
                text.push_str(&format!("{id},v{kind}\n"));
            }
        }
        text.push_str(TAILS[tail]);
        let want = codec::text::read(&cfg, &schema, &text);
        check_blocks(read_rows(&cfg, &schema, &text, blocks, threads), &want, blocks)?;
    }

    /// Rows of any schema of 1–6 fields — fixed-width, or with strings of
    /// 0, 14 and 15+ bytes and multi-byte UTF-8 — are the flat batch of
    /// the records they decode to: the same wire bytes, checksum, encoded
    /// size, records and count, `==` both ways, and every `field` of every
    /// row. `split(n)` cuts them where a scatter cuts the records,
    /// `decode_batch` gives them back as rows, and the checked constructor
    /// refuses ragged bytes and (for strings) invalid UTF-8.
    #[test]
    fn rows_are_the_records_they_decode_to(
        types in prop::collection::vec(0u8..4, 1..7),
        rows in rows(),
        n in 1usize..6,
        ragged in 1usize..8,
    ) {
        let schema = Arc::new(schema_of(&types));
        let records = records_of(&schema, &rows);
        let mut bytes = Vec::new();
        for r in &records {
            wire::encode_record(r, &schema, &mut bytes).unwrap();
        }
        let rows = Rows::new(schema.clone(), bytes.clone()).unwrap();
        prop_assert_eq!(rows.width(), schema.binary_record_width());
        prop_assert_eq!(rows.len(), records.len());
        let (as_rows, flat) = (Batch::Rows(rows.clone()), Batch::Flat(records.clone()));
        let encode = |b: &Batch| {
            let mut buf = Vec::new();
            wire::encode_batch(b, &schema, &mut buf).unwrap();
            buf
        };
        let encoded = encode(&flat);
        prop_assert_eq!(&encode(&as_rows), &encoded);
        prop_assert_eq!(
            wire::concat_checksum(&[&as_rows], &schema).unwrap(),
            wire::checksum(&encoded)
        );
        prop_assert_eq!(wire::encoded_size(&as_rows, &schema).unwrap(), encoded.len());
        prop_assert!(same(&as_rows.clone().flatten(), &records));
        prop_assert_eq!(as_rows.record_count(), records.len());
        prop_assert_eq!(as_rows.entry_count(), records.len());
        prop_assert_eq!(&as_rows, &flat);
        prop_assert_eq!(&flat, &as_rows);
        for (row, rec) in rows.iter().zip(&records) {
            prop_assert!(same(&row.to_record(), rec));
            for i in 0..=schema.len() {
                let want = rec.require(i).cloned();
                prop_assert!(same(&row.field(i), &want), "field {}", i);
            }
        }

        // Cut like a scatter, and hashed part by part with the flat
        // records of the other parts.
        let parts = rows.split(n);
        let mut rest = records.as_slice();
        for (part, size) in parts.iter().zip(block_sizes(records.len(), n)) {
            let (want, tail) = rest.split_at(size);
            rest = tail;
            prop_assert!(same(&part.to_records(), &want.to_vec()));
        }
        prop_assert_eq!(parts.len(), n);
        let mixed: Vec<Batch> = (parts.into_iter().enumerate())
            .map(|(i, p)| if i % 2 == 0 { Batch::Rows(p) } else { Batch::Flat(p.to_records()) })
            .collect();
        let refs: Vec<&Batch> = mixed.iter().collect();
        prop_assert_eq!(
            wire::concat_checksum(&refs, &schema).unwrap(),
            wire::checksum(&encoded)
        );

        let decoded = wire::decode_batch(&mut Reader::new(&encoded), &schema).unwrap();
        prop_assert!(matches!(decoded, Batch::Rows(_)));
        prop_assert_eq!(&decoded, &flat);

        // Bytes that are not whole rows: a fixed-width row is at least 4
        // bytes, so 1..width-1 extra bytes never are; a string row cut
        // anywhere inside its last row never is.
        match schema.binary_record_width() {
            Some(width) => {
                let mut uneven = bytes.clone();
                uneven.extend(std::iter::repeat_n(0, 1 + ragged % (width - 1)));
                prop_assert!(Rows::new(schema.clone(), uneven).is_err());
            }
            None => {
                let mut last = Vec::new();
                wire::encode_record(&records_of(&schema, &rows_one())[0], &schema, &mut last)
                    .unwrap();
                let mut uneven = bytes.clone();
                uneven.extend_from_slice(&last[..ragged % last.len()]);
                prop_assert_eq!(
                    Rows::new(schema.clone(), uneven).is_err(),
                    ragged % last.len() != 0
                );
                // A string whose bytes are not UTF-8.
                let at = types.iter().position(|&t| t == 3).unwrap();
                let mut bad = Vec::new();
                for (i, f) in schema.fields().iter().enumerate() {
                    if i == at {
                        bad.extend_from_slice(&[1, 0xff]);
                    } else {
                        wire::encode_field(&value_of(f.ty, &CELL), f.ty, &mut bad).unwrap();
                    }
                }
                let err = Rows::new(schema.clone(), [bytes, bad].concat()).unwrap_err();
                prop_assert!(err.to_string().contains("UTF-8"), "{}", err);
            }
        }
    }

    /// Packed batches over a fixed-width and a string schema, keyed by
    /// field 1, whose groups are rows of their members: `pack` groups the
    /// adjacent equal keys of any rows and `unpack` gives the rows back;
    /// the batch round-trips through `encode_batch`/`decode_batch` (CSC
    /// off) and `encode_compressed`/`decode_compressed` (CSC on) to equal
    /// groups and the same bytes; and each group's shuffle entry, plain
    /// and CSC, decodes to the group `pack` makes of its decoded records.
    #[test]
    fn packed_batches_are_their_members_rows(
        rows in rows(),
        keys in prop::collection::vec(0i32..3, 6..7),
    ) {
        const KEY: usize = 1;
        let fixed = [FieldType::Long, FieldType::Integer, FieldType::Double];
        let strings = [FieldType::Str, FieldType::Integer, FieldType::Str];
        for types in [fixed, strings] {
            let schema = Arc::new(Schema::new(
                types.iter().enumerate().map(|(i, &ty)| (format!("f{i}"), ty)).collect(),
            ));
            let mut records = records_of(&schema, &rows);
            for (r, &k) in records.iter_mut().zip(&keys) {
                *r = (0..3).map(|i| if i == KEY { Value::Int(k) } else { r.values()[i].clone() }).collect();
            }
            let all = Rows::from_records(schema.clone(), &records).unwrap();
            let groups = pack(all.clone(), KEY).unwrap();
            prop_assert_eq!(&unpack(groups.clone(), &schema).unwrap(), &all);
            let members: Vec<Record> = groups.iter().flat_map(|g| g.members.to_records()).collect();
            prop_assert!(same(&members, &records));
            for g in &groups {
                prop_assert_eq!(PackedRecord::new(g.key.clone(), g.members.clone(), KEY).unwrap(), g.clone());
            }

            let batch = Batch::Packed(groups.clone());
            let mut plain = Vec::new();
            wire::encode_batch(&batch, &schema, &mut plain).unwrap();
            let back = wire::decode_batch(&mut Reader::new(&plain), &schema).unwrap();
            prop_assert_eq!(&back, &batch);
            let mut again = Vec::new();
            wire::encode_batch(&back, &schema, &mut again).unwrap();
            prop_assert_eq!(&again, &plain);
            let mut csc = Vec::new();
            compress::encode_compressed(&batch, &schema, KEY, &mut csc).unwrap();
            let back = compress::decode_compressed(&mut Reader::new(&csc), &schema, KEY).unwrap();
            prop_assert_eq!(&back, &batch);
            let mut again = Vec::new();
            compress::encode_compressed(&back, &schema, KEY, &mut again).unwrap();
            prop_assert_eq!(&again, &csc);

            for g in &groups {
                for (tag, compress_key) in [(ENTRY_PACKED, None), (ENTRY_PACKED_CSC, Some(KEY))] {
                    let mut entry = Vec::new();
                    wire::encode_value(&g.key, &mut entry).unwrap();
                    entry.extend_from_slice(&(g.len() as u32).to_le_bytes());
                    match compress_key {
                        None => entry.extend_from_slice(g.members.as_bytes()),
                        Some(k) => compress::encode_columns(&g.members, &schema, k, None, &mut entry).unwrap(),
                    }
                    let mut r = Reader::new(&entry);
                    let view = EntryView::parse(&mut r, tag, &schema, compress_key).unwrap();
                    prop_assert_eq!(r.remaining(), 0);
                    let mut decoded = Vec::new();
                    view.decode_into(&mut decoded).unwrap();
                    let repacked = pack(Rows::from_records(schema.clone(), &decoded).unwrap(), KEY).unwrap();
                    prop_assert_eq!(vec![view.decode_group().unwrap()], repacked);
                    prop_assert_eq!(&view.decode_group().unwrap(), g);
                }
            }
        }
    }
}

/// The bytes of a string's length: one below 2^7, two below 2^14, three
/// below 2^21, four below 2^28.
fn len_bytes(len: usize) -> usize {
    match len {
        0..=0x7f => 1,
        0x80..=0x3fff => 2,
        0x4000..=0x1f_ffff => 3,
        _ => 4,
    }
}

/// Strings whose lengths sit at the edges of the varint's byte counts
/// round-trip through every string reader, and their length takes the
/// bytes LEB128 gives it.
#[test]
fn string_lengths_round_trip_at_the_varint_edges() {
    let schema = Arc::new(Schema::new(vec![
        ("s".to_string(), FieldType::Str),
        ("n".to_string(), FieldType::Integer),
    ]));
    for len in [0, 127, 128, 16_383, 16_384, 1 << 21] {
        let text = "x".repeat(len);
        let record = rec![text.as_str(), 7];
        let mut buf = Vec::new();
        wire::encode_record(&record, &schema, &mut buf).unwrap();
        assert_eq!(buf.len(), len_bytes(len) + len + 4, "length {len}");
        let mut len_only = Vec::new();
        wire::put_len(&mut len_only, len).unwrap();
        assert_eq!(len_only, buf[..len_bytes(len)], "length {len}");
        assert_eq!(Reader::new(&buf).read_len().unwrap(), len);
        assert_eq!(reference::len(&mut Reader::new(&buf)).unwrap(), len);

        let mut r = Reader::new(&buf);
        assert_eq!(wire::decode_record(&mut r, &schema).unwrap(), record);
        assert_eq!(r.remaining(), 0);
        let mut r = Reader::new(&buf);
        let view = ValueView::parse_field(&mut r, FieldType::Str).unwrap();
        assert_eq!(view, ValueView::Str(&text));
        let mut r = Reader::new(&buf);
        let p = prefix::from_field(&mut r, FieldType::Str).unwrap();
        assert_eq!(p, prefix::of_value(&Value::from(text.as_str())));
        assert_eq!(r.remaining(), 4);
        let mut r = Reader::new(&buf);
        wire::skip_field(&mut r, FieldType::Str).unwrap();
        assert_eq!(r.remaining(), 4);
        let rows = Rows::new(schema.clone(), [&buf[..], &buf[..]].concat()).unwrap();
        assert_eq!(rows.to_records(), vec![record.clone(), record.clone()]);
        let mut tagged = Vec::new();
        wire::encode_value(&Value::from(text.as_str()), &mut tagged).unwrap();
        assert_eq!(tagged[1..], buf[..buf.len() - 4]);
        let value = wire::decode_value(&mut Reader::new(&tagged)).unwrap();
        assert_eq!(value, Value::from(text.as_str()));
    }
}

/// A length cut short, a length with a redundant zero byte and a
/// five-byte length above `u32::MAX` are typed errors — the same text from
/// every string reader and from the reference — never a panic.
#[test]
fn malformed_string_lengths_are_typed_errors() {
    let schema = Arc::new(Schema::new(vec![("s".to_string(), FieldType::Str)]));
    let cases: [(&[u8], &str); 5] = [
        (&[0x80], "truncated buffer"),
        (&[0x80, 0x00], "not canonical"),
        (&[0xff, 0x80, 0x00], "not canonical"),
        (&[0xff, 0xff, 0xff, 0xff, 0x1f], "exceeds u32::MAX"),
        (&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01], "exceeds u32::MAX"),
    ];
    for (bytes, want) in cases {
        let err = reference::len(&mut Reader::new(bytes)).unwrap_err();
        assert!(err.0.contains(want), "{bytes:?}: {err}");
        let errors = [
            Reader::new(bytes).read_len().map(drop).unwrap_err(),
            wire::decode_record(&mut Reader::new(bytes), &schema)
                .map(drop)
                .unwrap_err(),
            ValueView::parse_field(&mut Reader::new(bytes), FieldType::Str)
                .map(drop)
                .unwrap_err(),
            prefix::from_field(&mut Reader::new(bytes), FieldType::Str)
                .map(drop)
                .unwrap_err(),
            wire::skip_field(&mut Reader::new(bytes), FieldType::Str).unwrap_err(),
        ];
        for got in errors {
            assert_eq!(got, err, "{bytes:?}");
        }
        let rows = Rows::new(schema.clone(), bytes.to_vec()).unwrap_err();
        assert_eq!(rows.0, format!("row 0: {err}"), "{bytes:?}");
    }
    // The largest length a string may have reads back; one more is refused.
    let mut max = Vec::new();
    wire::put_len(&mut max, u32::MAX as usize).unwrap();
    assert_eq!(max, [0xff, 0xff, 0xff, 0xff, 0x0f]);
    assert_eq!(Reader::new(&max).read_len().unwrap(), u32::MAX as usize);
    assert!(wire::put_len(&mut max, u32::MAX as usize + 1).is_err());
}
