//! Wire serialization: the byte format records use when they travel between
//! simulated cluster nodes.
//!
//! The shuffle of the MapReduce substrate moves *bytes*, exactly like MR-MPI
//! moves MPI messages, so communication volume is measurable and the CSR/CSC
//! compression of paper Section III-D has something real to compress.
//!
//! Two encodings exist:
//!
//! * **schema-driven** ([`encode_record`]/[`decode_record`]) — no per-field
//!   tags; field types come from the schema. Fixed-width fields take exactly
//!   their width; strings are `u32` length-prefixed.
//! * **tagged** ([`encode_value`]/[`decode_value`]) — a 1-byte type tag then
//!   the payload; used for group keys and reduce keys whose type is not
//!   described by the record schema.
//!
//! All integers are little-endian.

use std::sync::Arc;

use papar_config::input::FieldType;

use crate::batch::Rows;
use crate::packed::PackedRecord;
use crate::record::Record;
use crate::value::{SmallStr, Value};
use crate::{Batch, CodecError, Result, Schema};

/// A cursor over a byte slice for decoding.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Absolute byte offset of the cursor within the wrapped slice (public so
    /// view layers can record where a value starts without copying it).
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The whole wrapped slice, independent of cursor position.
    #[inline]
    pub fn buffer(&self) -> &'a [u8] {
        self.buf
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError(format!(
                "truncated buffer: needed {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte (public for framing layers built on this module).
    #[inline]
    pub fn read_u8(&mut self) -> Result<u8> {
        self.u8()
    }

    /// Read a little-endian `u32` (public for framing layers).
    #[inline]
    pub fn read_u32(&mut self) -> Result<u32> {
        self.u32()
    }

    /// Read a little-endian `u64` (public for framing layers — manifest
    /// records store checksums and fingerprints at this width).
    #[inline]
    pub fn read_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read exactly `n` raw bytes (public for framing layers — manifest
    /// records carry length-prefixed strings and nested payloads).
    #[inline]
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    #[inline]
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    #[inline]
    pub(crate) fn i32(&mut self) -> Result<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    #[inline]
    pub(crate) fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    #[inline]
    pub(crate) fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<SmallStr> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(SmallStr::from)
            .map_err(|_| CodecError("invalid UTF-8".into()))
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// FNV-1a 64-bit checksum of a byte slice — the integrity tag shuffle
/// transfers carry so in-flight corruption is detected instead of decoded
/// into garbage. FNV is not cryptographic; it only needs to catch bit flips.
pub fn checksum(bytes: &[u8]) -> u64 {
    fnv1a(0xCBF2_9CE4_8422_2325, bytes)
}

/// Continue an FNV-1a hash: `fnv1a(fnv1a(s, a), b) == fnv1a(s, a ++ b)`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A length or count as the wire's `u32`, refused when it would wrap: a
/// wrapped length decodes as a different, shorter frame or batch.
pub fn wire_len(n: usize, what: &str) -> Result<u32> {
    u32::try_from(n).map_err(|_| {
        CodecError(format!(
            "{what} of {n} does not fit the wire's u32 length (max {})",
            u32::MAX
        ))
    })
}

/// Bytes of a frame header: `[len u32][fnv1a u64]`.
pub const FRAME_HEADER_LEN: usize = 12;

/// The header of a frame around a `len`-byte payload whose [`checksum`]
/// is `sum`. A writer that already holds the sum puts this header and
/// the payload side by side instead of copying the payload into a frame.
pub fn frame_header(len: usize, sum: u64) -> Result<[u8; FRAME_HEADER_LEN]> {
    let mut header = [0; FRAME_HEADER_LEN];
    header[..4].copy_from_slice(&wire_len(len, "frame payload")?.to_le_bytes());
    header[4..].copy_from_slice(&sum.to_le_bytes());
    Ok(header)
}

/// Wrap a payload in a checksummed frame: `[len u32][fnv1a u64][payload]`.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) -> Result<()> {
    out.extend_from_slice(&frame_header(payload.len(), checksum(payload))?);
    out.extend_from_slice(payload);
    Ok(())
}

/// Decode one frame, verifying its checksum; errors on truncation or a
/// checksum mismatch (i.e. corruption anywhere in the payload).
pub fn decode_frame<'a>(r: &mut Reader<'a>) -> Result<&'a [u8]> {
    let len = r.u32()? as usize;
    let expect = u64::from_le_bytes(r.take(8)?.try_into().unwrap());
    let payload = r.take(len)?;
    let got = checksum(payload);
    if got != expect {
        return Err(CodecError(format!(
            "frame checksum mismatch: stored {expect:#018x}, computed {got:#018x}"
        )));
    }
    Ok(payload)
}

/// Encode one value according to its declared field type (schema-driven).
pub fn encode_field(v: &Value, ty: FieldType, buf: &mut Vec<u8>) -> Result<()> {
    match (ty, v) {
        (FieldType::Integer, Value::Int(x)) => buf.extend_from_slice(&x.to_le_bytes()),
        (FieldType::Long, Value::Long(x)) => buf.extend_from_slice(&x.to_le_bytes()),
        (FieldType::Double, Value::Double(x)) => buf.extend_from_slice(&x.to_le_bytes()),
        (FieldType::Str, Value::Str(s)) => {
            put_u32(buf, s.len() as u32);
            buf.extend_from_slice(s.as_bytes());
        }
        (ty, v) => {
            return Err(CodecError(format!(
                "value {v} does not match declared field type {ty:?}"
            )))
        }
    }
    Ok(())
}

/// Decode one value according to its declared field type (schema-driven).
pub fn decode_field(r: &mut Reader<'_>, ty: FieldType) -> Result<Value> {
    Ok(match ty {
        FieldType::Integer => Value::Int(r.i32()?),
        FieldType::Long => Value::Long(r.i64()?),
        FieldType::Double => Value::Double(r.f64()?),
        FieldType::Str => Value::Str(r.str()?),
    })
}

/// Encode a record without tags; the schema supplies the field types.
pub fn encode_record(rec: &Record, schema: &Schema, buf: &mut Vec<u8>) -> Result<()> {
    if rec.arity() != schema.len() {
        return Err(CodecError(format!(
            "record arity {} does not match schema arity {}",
            rec.arity(),
            schema.len()
        )));
    }
    for (v, f) in rec.values().iter().zip(schema.fields()) {
        encode_field(v, f.ty, buf)?;
    }
    Ok(())
}

/// Decode a record using the schema's field types.
///
/// A fixed-width schema takes the record's span with one bounds check and
/// reads each field at its offset. A buffer shorter than that span takes
/// the per-field path, so its error names the field that runs out.
pub fn decode_record(r: &mut Reader<'_>, schema: &Schema) -> Result<Record> {
    match schema.binary_record_width() {
        Some(w) if r.remaining() >= w => Ok(decode_fixed_record(r.take(w)?, schema)),
        _ => Record::try_from_exact(schema.fields().iter().map(|f| decode_field(r, f.ty))),
    }
}

/// Decode one record of a fixed-width schema from exactly its span.
pub(crate) fn decode_fixed_record(span: &[u8], schema: &Schema) -> Record {
    let mut off = 0;
    let Ok(rec) = Record::try_from_exact(schema.fields().iter().map(|f| {
        let w = f.ty.binary_width().expect("fixed-width schema");
        let v = decode_fixed(&span[off..off + w], f.ty);
        off += w;
        Ok::<_, std::convert::Infallible>(v)
    }));
    rec
}

/// A fixed-width field from exactly its bytes.
pub(crate) fn decode_fixed(bytes: &[u8], ty: FieldType) -> Value {
    match ty {
        FieldType::Integer => Value::Int(i32::from_le_bytes(bytes.try_into().unwrap())),
        FieldType::Long => Value::Long(i64::from_le_bytes(bytes.try_into().unwrap())),
        FieldType::Double => Value::Double(f64::from_le_bytes(bytes.try_into().unwrap())),
        FieldType::Str => unreachable!("strings have no fixed width"),
    }
}

/// Encode a value with a 1-byte type tag (for keys of unknown schema).
pub fn encode_value(v: &Value, buf: &mut Vec<u8>) {
    match v {
        Value::Int(x) => {
            buf.push(0);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Long(x) => {
            buf.push(1);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Double(x) => {
            buf.push(2);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(3);
            put_u32(buf, s.len() as u32);
            buf.extend_from_slice(s.as_bytes());
        }
    }
}

/// The field type a value tag names: a tagged value is its tag and then
/// the bytes of an untagged field of that type.
#[inline]
pub fn tag_type(tag: u8) -> Result<FieldType> {
    Ok(match tag {
        0 => FieldType::Integer,
        1 => FieldType::Long,
        2 => FieldType::Double,
        3 => FieldType::Str,
        t => return Err(CodecError(format!("unknown value tag {t}"))),
    })
}

/// Decode a tagged value.
pub fn decode_value(r: &mut Reader<'_>) -> Result<Value> {
    let ty = tag_type(r.u8()?)?;
    decode_field(r, ty)
}

/// Advance past one tagged value without decoding or allocating.
pub fn skip_value(r: &mut Reader<'_>) -> Result<()> {
    let ty = tag_type(r.u8()?)?;
    skip_field(r, ty)
}

/// Advance past one schema-driven field without decoding or allocating.
#[inline]
pub fn skip_field(r: &mut Reader<'_>, ty: FieldType) -> Result<()> {
    match ty.binary_width() {
        Some(w) => r.take(w).map(|_| ()),
        None => {
            let len = r.u32()? as usize;
            r.take(len).map(|_| ())
        }
    }
}

/// Advance past one schema-driven record without decoding or allocating.
/// Fixed-width schemas skip in a single bounds check.
pub fn skip_record(r: &mut Reader<'_>, schema: &Schema) -> Result<()> {
    record_bytes(r, schema).map(drop)
}

/// The wire bytes of the record at the cursor, borrowed, with the cursor
/// moved past them. Only the structure is checked (lengths and bounds);
/// a fixed-width schema takes its span in a single bounds check.
pub fn record_bytes<'a>(r: &mut Reader<'a>, schema: &Schema) -> Result<&'a [u8]> {
    if let Some(w) = schema.binary_record_width() {
        return r.take(w);
    }
    let start = r.pos;
    for f in schema.fields() {
        skip_field(r, f.ty)?;
    }
    Ok(&r.buf[start..r.pos])
}

/// Check the record at the cursor as a row must be: its structure, and
/// with `utf8` every string's UTF-8 too (bytes that are all ASCII need no
/// such check). The cursor moves past it.
pub(crate) fn check_record(r: &mut Reader<'_>, schema: &Schema, utf8: bool) -> Result<()> {
    if let Some(w) = schema.binary_record_width() {
        return r.take(w).map(drop);
    }
    for f in schema.fields() {
        match f.ty.binary_width() {
            Some(w) => {
                r.take(w)?;
            }
            None => {
                let len = r.u32()? as usize;
                let bytes = r.take(len)?;
                if utf8 && std::str::from_utf8(bytes).is_err() {
                    return Err(CodecError("invalid UTF-8".into()));
                }
            }
        }
    }
    Ok(())
}

/// Each field's wire span within one record's bytes, in schema order: a
/// fixed field's bytes, or a string's length prefix and bytes. The
/// record must be well-formed (a row, or bytes [`record_bytes`] took).
pub(crate) fn field_spans<'a>(
    record: &'a [u8],
    schema: &'a Schema,
) -> impl Iterator<Item = &'a [u8]> {
    let mut rest = record;
    schema.fields().iter().map(move |f| {
        let len = match f.ty.binary_width() {
            Some(w) => w,
            None => 4 + u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize,
        };
        let (span, tail) = rest.split_at(len);
        rest = tail;
        span
    })
}

/// Append the fields `proj` names (in that order) of one well-formed
/// record of `schema` to `out`, as their wire spans: the record's
/// projection, encoded, without decoding a value.
pub fn project_record(record: &[u8], schema: &Schema, proj: &[usize], out: &mut Vec<u8>) {
    let mut spans = field_spans(record, schema).enumerate();
    let mut seen: Option<(usize, &[u8])> = None;
    for &want in proj {
        if seen.is_some_and(|(i, _)| i > want) {
            spans = field_spans(record, schema).enumerate();
        }
        let span = loop {
            match seen {
                Some((i, span)) if i == want => break span,
                _ => seen = Some(spans.next().expect("projected field within the schema")),
            }
        };
        out.extend_from_slice(span);
    }
}

const BATCH_FLAT: u8 = 0;
const BATCH_PACKED: u8 = 1;

/// Whether `rows` are laid out by `schema`: the same schema, checked by
/// pointer before by field list.
fn rows_follow(rows: &Rows, schema: &Schema) -> bool {
    std::ptr::eq(rows.schema().as_ref(), schema) || rows.schema().as_ref() == schema
}

/// Encode a whole batch (format tag + entry count + entries). Rows encode
/// as the flat batch of their records, which is their bytes.
pub fn encode_batch(batch: &Batch, schema: &Schema, buf: &mut Vec<u8>) -> Result<()> {
    match batch {
        Batch::Flat(records) => {
            buf.push(BATCH_FLAT);
            put_u32(buf, wire_len(records.len(), "batch record count")?);
            for rec in records {
                encode_record(rec, schema, buf)?;
            }
        }
        Batch::Rows(rows) => {
            buf.push(BATCH_FLAT);
            put_u32(buf, wire_len(rows.len(), "batch record count")?);
            encode_rows(rows, schema, buf)?;
        }
        Batch::Packed(groups) => {
            buf.push(BATCH_PACKED);
            put_u32(buf, wire_len(groups.len(), "batch group count")?);
            for g in groups {
                encode_value(&g.key, buf);
                put_u32(buf, wire_len(g.members.len(), "group member count")?);
                encode_rows(&g.members, schema, buf)?;
            }
        }
    }
    Ok(())
}

/// The records of `rows` under `schema`: the row bytes themselves when the
/// rows follow it, else each row decoded and encoded.
pub(crate) fn encode_rows(rows: &Rows, schema: &Schema, buf: &mut Vec<u8>) -> Result<()> {
    if rows_follow(rows, schema) {
        buf.extend_from_slice(rows.as_bytes());
        return Ok(());
    }
    for row in rows.iter() {
        encode_record(&row.to_record(), schema, buf)?;
    }
    Ok(())
}

/// [`checksum`] of the [`encode_batch`] bytes of the concatenation of
/// `parts` (all flat — records or rows — or all packed), computed part by
/// part without building the concatenation: the format tag, the total
/// entry count, then every part's entries in order. Rows are hashed where
/// they lie.
pub fn concat_checksum(parts: &[&Batch], schema: &Schema) -> Result<u64> {
    let packed = matches!(parts.first(), Some(Batch::Packed(_)));
    let entries: usize = parts.iter().map(|b| b.entry_count()).sum();
    let mut buf = vec![if packed { BATCH_PACKED } else { BATCH_FLAT }];
    put_u32(&mut buf, wire_len(entries, "batch entry count")?);
    let mut h = checksum(&buf);
    for part in parts {
        if matches!(part, Batch::Packed(_)) != packed {
            return Err(CodecError(
                "cannot hash flat and packed parts as one batch".into(),
            ));
        }
        match part {
            Batch::Rows(rows) if rows_follow(rows, schema) => h = fnv1a(h, rows.as_bytes()),
            _ => {
                buf.clear();
                encode_batch(part, schema, &mut buf)?;
                h = fnv1a(h, &buf[5..]);
            }
        }
    }
    Ok(h)
}

/// Fewest bytes one record of `schema` takes on the wire: its fixed
/// fields' widths plus a length prefix per string.
fn min_record_len(schema: &Schema) -> usize {
    (schema.fields().iter())
        .map(|f| f.ty.binary_width().unwrap_or(4))
        .sum()
}

/// Refuse a count of `n` items of at least `each` bytes (taken as one when
/// smaller) that the reader's remaining bytes cannot hold — before anything
/// is allocated for them.
pub fn check_count(r: &Reader<'_>, n: usize, each: usize, what: &str) -> Result<()> {
    match n.checked_mul(each.max(1)) {
        Some(need) if need <= r.remaining() => Ok(()),
        _ => Err(CodecError(format!(
            "{what} count {n} needs at least {} bytes, {} left",
            n as u128 * each.max(1) as u128,
            r.remaining()
        ))),
    }
}

/// Decode a whole batch. A flat batch comes back as [`Batch::Rows`], its
/// records checked as rows and their bytes copied once (a schema without
/// fields has no rows: its records decode); so do a packed group's
/// members.
pub fn decode_batch(r: &mut Reader<'_>, schema: &Schema) -> Result<Batch> {
    match r.u8()? {
        BATCH_FLAT => {
            let n = r.u32()? as usize;
            check_count(r, n, min_record_len(schema), "batch record")?;
            if !schema.is_empty() {
                return Ok(Batch::Rows(Rows::read(r, Arc::new(schema.clone()), n)?));
            }
            let mut records = Vec::with_capacity(n);
            for _ in 0..n {
                records.push(decode_record(r, schema)?);
            }
            Ok(Batch::Flat(records))
        }
        BATCH_PACKED => {
            let n = r.u32()? as usize;
            // A group is at least a tag, a 4-byte key and its count.
            check_count(r, n, 9, "batch group")?;
            let mut groups = Vec::with_capacity(n);
            let shared = Arc::new(schema.clone());
            for _ in 0..n {
                let key = decode_value(r)?;
                let m = r.u32()? as usize;
                check_count(r, m, min_record_len(schema), "group member")?;
                let members = Rows::read(r, shared.clone(), m)?;
                groups.push(PackedRecord { key, members });
            }
            Ok(Batch::Packed(groups))
        }
        t => Err(CodecError(format!("unknown batch tag {t}"))),
    }
}

/// Encoded size of a batch in bytes; arithmetic for rows.
pub fn encoded_size(batch: &Batch, schema: &Schema) -> Result<usize> {
    if let Batch::Rows(rows) = batch {
        if rows_follow(rows, schema) {
            wire_len(rows.len(), "batch record count")?;
            return Ok(5 + rows.as_bytes().len());
        }
    }
    let mut buf = Vec::new();
    encode_batch(batch, schema, &mut buf)?;
    Ok(buf.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rec;

    fn blast_schema() -> Schema {
        Schema::new(vec![
            ("seq_start", FieldType::Integer),
            ("seq_size", FieldType::Integer),
            ("desc_start", FieldType::Integer),
            ("desc_size", FieldType::Integer),
        ])
    }

    fn edge_schema() -> Schema {
        Schema::new(vec![
            ("vertex_a", FieldType::Str),
            ("vertex_b", FieldType::Str),
        ])
    }

    #[test]
    fn record_roundtrip_fixed_width() {
        let schema = blast_schema();
        let r0 = rec![293, 91, 272, 107];
        let mut buf = Vec::new();
        encode_record(&r0, &schema, &mut buf).unwrap();
        assert_eq!(buf.len(), 16);
        let mut rd = Reader::new(&buf);
        assert_eq!(decode_record(&mut rd, &schema).unwrap(), r0);
        assert_eq!(rd.remaining(), 0);
    }

    #[test]
    fn record_roundtrip_strings() {
        let schema = edge_schema();
        let r0 = rec!["v12", "v3456"];
        let mut buf = Vec::new();
        encode_record(&r0, &schema, &mut buf).unwrap();
        let mut rd = Reader::new(&buf);
        assert_eq!(decode_record(&mut rd, &schema).unwrap(), r0);
    }

    #[test]
    fn tagged_value_roundtrip() {
        for v in [
            Value::Int(-9),
            Value::Long(1 << 40),
            Value::Double(2.5),
            Value::Str("hello".into()),
        ] {
            let mut buf = Vec::new();
            encode_value(&v, &mut buf);
            let mut rd = Reader::new(&buf);
            assert_eq!(decode_value(&mut rd).unwrap(), v);
        }
    }

    #[test]
    fn batch_roundtrip_flat_and_packed() {
        let schema = edge_schema();
        let rows = vec![rec!["2", "1"], rec!["3", "1"], rec!["1", "2"]];
        let flat = Batch::Flat(rows.clone());
        let mut buf = Vec::new();
        encode_batch(&flat, &schema, &mut buf).unwrap();
        let got = decode_batch(&mut Reader::new(&buf), &schema).unwrap();
        assert_eq!(got, flat);

        let packed = Batch::Flat(rows)
            .pack_by(&Arc::new(schema.clone()), 1)
            .unwrap();
        let mut buf2 = Vec::new();
        encode_batch(&packed, &schema, &mut buf2).unwrap();
        let got2 = decode_batch(&mut Reader::new(&buf2), &schema).unwrap();
        assert_eq!(got2, packed);
    }

    #[test]
    fn truncated_buffers_error_cleanly() {
        let schema = blast_schema();
        let mut buf = Vec::new();
        encode_record(&rec![1, 2, 3, 4], &schema, &mut buf).unwrap();
        buf.truncate(10);
        let mut rd = Reader::new(&buf);
        assert!(decode_record(&mut rd, &schema).is_err());
        assert!(decode_value(&mut Reader::new(&[])).is_err());
        assert!(decode_batch(&mut Reader::new(&[9]), &schema).is_err());
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let schema = blast_schema();
        let mut buf = Vec::new();
        assert!(encode_record(&rec!["oops", 1, 2, 3], &schema, &mut buf).is_err());
        assert!(encode_record(&rec![1, 2], &schema, &mut buf).is_err());
    }

    #[test]
    fn concat_checksum_equals_checksum_of_the_whole_batch() {
        let schema = edge_schema();
        let rows = vec![
            rec!["2", "1"],
            rec!["3", "1"],
            rec!["1", "2"],
            rec!["4", "2"],
        ];
        let whole = |b: &Batch| {
            let mut buf = Vec::new();
            encode_batch(b, &schema, &mut buf).unwrap();
            checksum(&buf)
        };
        let flat = Batch::Flat(rows.clone());
        let (a, b) = rows.split_at(1);
        let parts = [
            Batch::Flat(a.to_vec()),
            Batch::empty(),
            Batch::Flat(b.to_vec()),
        ];
        let refs: Vec<&Batch> = parts.iter().collect();
        assert_eq!(concat_checksum(&refs, &schema).unwrap(), whole(&flat));
        assert_eq!(
            concat_checksum(&[], &schema).unwrap(),
            whole(&Batch::empty())
        );

        let packed = flat.pack_by(&Arc::new(schema.clone()), 1).unwrap();
        let groups = packed.as_packed().unwrap();
        let parts = [
            Batch::Packed(groups[..1].to_vec()),
            Batch::Packed(groups[1..].to_vec()),
        ];
        let refs: Vec<&Batch> = parts.iter().collect();
        assert_eq!(concat_checksum(&refs, &schema).unwrap(), whole(&packed));
        let mixed = [&parts[0], &Batch::empty()];
        assert!(concat_checksum(&mixed, &schema).is_err());
    }

    #[test]
    fn a_count_the_bytes_cannot_hold_is_refused_before_allocating() {
        // Five bytes claiming 2^32 - 1 records (or groups): refused as a
        // typed error, not a multi-gigabyte allocation. Strings first: a
        // fixed-width batch would also fail, later, on the missing bytes.
        for tag in [BATCH_FLAT, BATCH_PACKED] {
            let five = [tag, 0xff, 0xff, 0xff, 0xff];
            for schema in [edge_schema(), blast_schema()] {
                let err = decode_batch(&mut Reader::new(&five), &schema).unwrap_err();
                assert!(err.0.contains("count 4294967295"), "{err}");
            }
        }
        // A group whose member count overruns the rest of the buffer.
        let mut buf = vec![BATCH_PACKED, 1, 0, 0, 0];
        encode_value(&Value::Int(1), &mut buf);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_batch(&mut Reader::new(&buf), &edge_schema()).unwrap_err();
        assert!(err.0.contains("group member count"), "{err}");
    }

    #[test]
    fn flat_batches_of_a_fixed_width_schema_decode_to_rows() {
        let schema = blast_schema();
        let flat = Batch::Flat(vec![rec![1, 2, 3, 4], rec![5, 6, 7, 8]]);
        let mut buf = Vec::new();
        encode_batch(&flat, &schema, &mut buf).unwrap();
        let got = decode_batch(&mut Reader::new(&buf), &schema).unwrap();
        assert!(matches!(got, Batch::Rows(_)), "{got:?}");
        assert_eq!(got, flat);
        let mut again = Vec::new();
        encode_batch(&got, &schema, &mut again).unwrap();
        assert_eq!(again, buf, "rows encode to the bytes they came from");
        assert_eq!(encoded_size(&got, &schema).unwrap(), buf.len());
        assert_eq!(
            concat_checksum(&[&got, &Batch::empty()], &schema).unwrap(),
            checksum(&buf)
        );
    }

    #[test]
    fn encoded_size_reports_bytes() {
        let schema = blast_schema();
        let b = Batch::Flat(vec![rec![1, 2, 3, 4], rec![5, 6, 7, 8]]);
        // 1 tag + 4 count + 2 * 16 payload.
        assert_eq!(encoded_size(&b, &schema).unwrap(), 1 + 4 + 32);
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        assert_eq!(checksum(b""), 0xCBF2_9CE4_8422_2325, "FNV-1a offset basis");
        assert_eq!(checksum(b"papar"), checksum(b"papar"));
        assert_ne!(checksum(b"papar"), checksum(b"parap"), "order matters");
        // Every single-byte flip of a small payload must change the sum.
        let payload = b"shuffle bytes".to_vec();
        let clean = checksum(&payload);
        for i in 0..payload.len() {
            let mut bad = payload.clone();
            bad[i] ^= 0xFF;
            assert_ne!(checksum(&bad), clean, "flip at {i} went unnoticed");
        }
    }

    #[test]
    fn frame_roundtrip_and_corruption_detection() {
        let payload = b"the quick brown fragment".to_vec();
        let mut framed = Vec::new();
        encode_frame(&payload, &mut framed).unwrap();
        assert_eq!(framed.len(), FRAME_HEADER_LEN + payload.len());
        let back = decode_frame(&mut Reader::new(&framed)).unwrap();
        assert_eq!(back, &payload[..]);
        let header = frame_header(payload.len(), checksum(&payload)).unwrap();
        assert_eq!(&framed[..FRAME_HEADER_LEN], &header);

        // An empty payload frames fine too.
        let mut empty = Vec::new();
        encode_frame(&[], &mut empty).unwrap();
        assert_eq!(
            decode_frame(&mut Reader::new(&empty)).unwrap(),
            &[] as &[u8]
        );

        // Flipping any payload byte must be detected.
        for i in 12..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x01;
            let err = decode_frame(&mut Reader::new(&bad)).unwrap_err();
            assert!(err.to_string().contains("checksum mismatch"), "{err}");
        }
        // Truncation errors out instead of panicking.
        for cut in 0..framed.len() {
            assert!(decode_frame(&mut Reader::new(&framed[..cut])).is_err());
        }
    }

    #[test]
    fn frames_concatenate() {
        let mut buf = Vec::new();
        encode_frame(b"one", &mut buf).unwrap();
        encode_frame(b"two!", &mut buf).unwrap();
        let mut r = Reader::new(&buf);
        assert_eq!(decode_frame(&mut r).unwrap(), b"one");
        assert_eq!(decode_frame(&mut r).unwrap(), b"two!");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn wire_lengths_refuse_to_wrap_at_4_gib() {
        let max = u32::MAX as usize;
        assert_eq!(wire_len(max, "frame payload").unwrap(), u32::MAX);
        let err = wire_len(max + 1, "frame payload").unwrap_err();
        assert!(
            err.to_string().contains("frame payload of 4294967296"),
            "{err}"
        );
        // The frame header takes its length through the same check, so a
        // 4 GiB payload is refused before a byte of it is written.
        let header = frame_header(max, 7).unwrap();
        assert_eq!(&header[..4], &u32::MAX.to_le_bytes());
        assert_eq!(&header[4..], &7u64.to_le_bytes());
        assert_eq!(frame_header(max + 1, 7).unwrap_err(), err);
    }
}
