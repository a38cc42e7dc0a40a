//! Borrowed views over wire bytes: zero-copy counterparts to the owned
//! decode path in [`crate::wire`].
//!
//! A view validates structure (tags, lengths, bounds) in a single forward
//! pass and then *borrows* the validated span instead of materializing
//! `Record`/`Value` heap structures. Integrity is already guaranteed one
//! layer down — shuffle transfers are FNV-checksummed frames — so a view
//! only has to prove the span is well-formed, not uncorrupted.
//!
//! Fixed-width fast path: when every field of a schema has a static binary
//! width, a record parses with a single bounds check
//! (`Schema::binary_record_width`), and packed CSC columns skip in one
//! multiplication. Variable-width (string) fields fall back to a per-field
//! walk over their length varints.
//!
//! The shuffle's entry framing (a payload whose tag byte travels once per
//! run, see the engine's `encode_entry`) lives here as [`EntryView`] so the
//! reduce hot path can sort and group *references into inbox buffers* and
//! decode each entry exactly once, straight into the reducer's output.

use std::sync::Arc;

use papar_config::input::{FieldDef, FieldType};

use crate::batch::Rows;
use crate::packed::PackedRecord;
use crate::record::Record;
use crate::value::Value;
use crate::wire::{self, Reader};
use crate::{CodecError, Result, Schema};

/// Entry tag: a single flat record.
pub const ENTRY_REC: u8 = 0;
/// Entry tag: a packed group (tagged key + u32 count + its member rows).
pub const ENTRY_PACKED: u8 = 1;
/// Entry tag: a CSC-compressed packed group (tagged key + u32 count +
/// column-major non-key fields; the key column is factored out).
pub const ENTRY_PACKED_CSC: u8 = 2;

/// A tagged value read without allocating; strings borrow the wire bytes
/// (UTF-8 validated at parse time, exactly like the owned decoder).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueView<'a> {
    /// 32-bit integer.
    Int(i32),
    /// 64-bit integer.
    Long(i64),
    /// 64-bit float.
    Double(f64),
    /// Borrowed string slice into the wire buffer.
    Str(&'a str),
}

impl<'a> ValueView<'a> {
    /// Parse one tagged value, borrowing string payloads.
    pub fn parse(r: &mut Reader<'a>) -> Result<Self> {
        let ty = wire::tag_type(r.read_u8()?)?;
        Self::parse_field(r, ty)
    }

    /// Parse one untagged field of type `ty`, borrowing string payloads.
    pub fn parse_field(r: &mut Reader<'a>, ty: FieldType) -> Result<Self> {
        Ok(match ty {
            FieldType::Integer => ValueView::Int(r.i32()?),
            FieldType::Long => ValueView::Long(r.i64()?),
            FieldType::Double => ValueView::Double(r.f64()?),
            FieldType::Str => {
                let len = r.read_len()?;
                let bytes = r.read_bytes(len)?;
                ValueView::Str(
                    std::str::from_utf8(bytes).map_err(|_| CodecError("invalid UTF-8".into()))?,
                )
            }
        })
    }

    /// Copy into an owned [`Value`] (allocates only for strings).
    pub fn to_value(self) -> Value {
        match self {
            ValueView::Int(x) => Value::Int(x),
            ValueView::Long(x) => Value::Long(x),
            ValueView::Double(x) => Value::Double(x),
            ValueView::Str(s) => Value::Str(s.into()),
        }
    }
}

/// A key field of the entries of one schema, located once: its index, its
/// type and, when every field before it is fixed-width, its constant
/// offset inside a record. [`EntryView::key`] finds a key through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyField {
    index: usize,
    ty: FieldType,
    /// Bytes before the field in a record, when they do not vary.
    offset: Option<usize>,
}

impl KeyField {
    /// Field `index` of `schema` as a key; an index past its fields is an
    /// error.
    pub fn new(schema: &Schema, index: usize) -> Result<Self> {
        let fields = schema.fields();
        let Some(field) = fields.get(index) else {
            return Err(CodecError(format!(
                "key field {index} out of range for arity {}",
                fields.len()
            )));
        };
        Ok(KeyField {
            index,
            ty: field.ty,
            offset: fields[..index].iter().map(|f| f.ty.binary_width()).sum(),
        })
    }

    /// The key's type.
    pub fn ty(&self) -> FieldType {
        self.ty
    }

    /// Bytes before the key in a record, when they do not vary.
    pub fn offset(&self) -> Option<usize> {
        self.offset
    }

    /// The fields of `schema` before this one.
    fn before<'s>(&self, schema: &'s Schema) -> Result<&'s [FieldDef]> {
        (schema.fields().get(..self.index))
            .ok_or_else(|| CodecError(format!("key field {} out of range", self.index)))
    }
}

/// A borrowed shuffle entry: its tag plus the validated payload span.
/// Parsing walks the payload once (bounds + tags only, no allocation);
/// [`EntryView::decode_into`] decodes it exactly once, straight into the
/// vector the reducer commits.
#[derive(Debug, Clone, Copy)]
pub struct EntryView<'a> {
    tag: u8,
    schema: &'a Arc<Schema>,
    compress_key: Option<usize>,
    /// Flat records the entry holds: 1, or a packed group's member count.
    records: usize,
    /// The entry's bytes: everything but its tag.
    payload: &'a [u8],
}

/// Skip the CSC column blocks of `fields` (a prefix of the schema's
/// fields, so indices agree): `count` cells of each non-key field,
/// column-major. Fixed-width columns skip with one multiplication.
fn skip_csc_columns(
    r: &mut Reader<'_>,
    fields: &[FieldDef],
    key_idx: usize,
    count: usize,
) -> Result<()> {
    for (fi, field) in fields.iter().enumerate() {
        if fi == key_idx {
            continue;
        }
        match field.ty.binary_width() {
            Some(w) => {
                r.read_bytes(w * count)?;
            }
            None => {
                for _ in 0..count {
                    wire::skip_field(r, field.ty)?;
                }
            }
        }
    }
    Ok(())
}

/// The field of type `ty` at the cursor: its type and its bytes, with the
/// cursor moved past them.
fn field_span<'a>(r: &mut Reader<'a>, ty: FieldType) -> Result<(FieldType, &'a [u8])> {
    let start = r.position();
    wire::skip_field(r, ty)?;
    Ok((ty, &r.buffer()[start..r.position()]))
}

impl<'a> EntryView<'a> {
    /// Parse one entry of kind `tag` off the cursor (the tag itself is not
    /// on it: the shuffle sends one per run): validates the payload
    /// structure in a single forward pass, and borrows the span.
    pub fn parse(
        r: &mut Reader<'a>,
        tag: u8,
        schema: &'a Arc<Schema>,
        compress_key: Option<usize>,
    ) -> Result<Self> {
        let start = r.position();
        let records = match tag {
            ENTRY_REC => {
                wire::skip_record(r, schema)?;
                1
            }
            ENTRY_PACKED => {
                wire::skip_value(r)?;
                let count = r.read_u32()? as usize;
                // Fixed-width groups skip in one bounds check.
                if let Some(w) = schema.binary_record_width() {
                    r.read_bytes(w * count)?;
                } else {
                    for _ in 0..count {
                        wire::skip_record(r, schema)?;
                    }
                }
                count
            }
            ENTRY_PACKED_CSC => {
                let key_idx = csc_key(compress_key)?;
                wire::skip_value(r)?;
                let count = r.read_u32()? as usize;
                skip_csc_columns(r, schema.fields(), key_idx, count)?;
                count
            }
            t => return Err(CodecError(format!("unknown entry tag {t}"))),
        };
        Ok(EntryView {
            tag,
            schema,
            compress_key,
            records,
            payload: &r.buffer()[start..r.position()],
        })
    }

    /// The entry tag byte.
    pub fn tag(&self) -> u8 {
        self.tag
    }

    /// Encoded length, which holds no tag byte.
    pub fn encoded_len(&self) -> usize {
        self.payload.len()
    }

    /// Flat records the entry holds: 1 for a record, the member count
    /// for a packed group.
    pub fn record_count(&self) -> usize {
        self.records
    }

    /// Where the entry's key lies: its type and its bytes, untagged. The
    /// key is field `key` of the record, or of a packed group's first
    /// member; a fixed-width key at a constant offset in a record is one
    /// slice. A CSC group keyed by the column it factored out holds the
    /// key once, as its group key; any other key is the first cell of its
    /// column. A group with no members has no key.
    #[inline]
    pub fn key(&self, key: KeyField) -> Result<(FieldType, &'a [u8])> {
        if let (ENTRY_REC, Some(offset), Some(width)) =
            (self.tag, key.offset, key.ty.binary_width())
        {
            if let Some(bytes) = self.payload.get(offset..offset + width) {
                return Ok((key.ty, bytes));
            }
        }
        self.find_key(key)
    }

    /// [`EntryView::key`] by walking the entry.
    fn find_key(&self, key: KeyField) -> Result<(FieldType, &'a [u8])> {
        let mut r = Reader::new(self.payload);
        match self.tag {
            ENTRY_REC => {}
            _ if self.records == 0 => {
                return Err(CodecError(
                    "a packed group with no members has no key".into(),
                ))
            }
            ENTRY_PACKED => {
                wire::skip_value(&mut r)?;
                r.read_u32()?;
            }
            _ => {
                let key_idx = csc_key(self.compress_key)?;
                let group_ty = wire::tag_type(r.read_u8()?)?;
                if key.index == key_idx {
                    return field_span(&mut r, group_ty);
                }
                wire::skip_field(&mut r, group_ty)?;
                r.read_u32()?;
                skip_csc_columns(&mut r, key.before(self.schema)?, key_idx, self.records)?;
                return field_span(&mut r, key.ty);
            }
        }
        match key.offset {
            Some(offset) => {
                r.read_bytes(offset)?;
            }
            None => {
                for f in key.before(self.schema)? {
                    wire::skip_field(&mut r, f.ty)?;
                }
            }
        }
        field_span(&mut r, key.ty)
    }

    /// Decode the entry, appending its flat records to `out`: the record
    /// itself, or a packed group's members in group order. This is the
    /// single wire→owned copy on the reduce path; CSC members are rebuilt
    /// field by field in place in `out`, never cloned.
    pub fn decode_into(&self, out: &mut Vec<Record>) -> Result<()> {
        let mut r = Reader::new(self.payload);
        match self.tag {
            ENTRY_REC => out.push(wire::decode_record(&mut r, self.schema)?),
            ENTRY_PACKED => {
                wire::skip_value(&mut r)?;
                r.read_u32()?;
                out.reserve(self.records);
                for _ in 0..self.records {
                    out.push(wire::decode_record(&mut r, self.schema)?);
                }
            }
            ENTRY_PACKED_CSC => {
                let key_idx = csc_key(self.compress_key)?;
                let key = wire::decode_value(&mut r)?;
                r.read_u32()?;
                crate::compress::decode_csc_rows(
                    &mut r,
                    self.schema,
                    key_idx,
                    &key,
                    self.records,
                    out,
                )?;
            }
            t => return Err(CodecError(format!("unknown entry tag {t}"))),
        }
        Ok(())
    }

    /// A packed entry as its group: the key decoded, the members as rows,
    /// their bytes copied at once (a CSC group's rebuilt from its
    /// columns); a flat entry is an error.
    pub fn decode_group(&self) -> Result<PackedRecord> {
        if self.tag == ENTRY_REC {
            return Err(CodecError(
                "expected a packed group, found a flat record".into(),
            ));
        }
        let mut r = Reader::new(self.payload);
        let key = wire::decode_value(&mut r)?;
        r.read_u32()?;
        let members = if self.tag == ENTRY_PACKED {
            Rows::new(self.schema.clone(), r.buffer()[r.position()..].to_vec())?
        } else {
            let mut records = Vec::with_capacity(self.records);
            self.decode_into(&mut records)?;
            Rows::from_records(self.schema.clone(), &records)?
        };
        Ok(PackedRecord { key, members })
    }
}

/// The key column a CSC entry factored out.
fn csc_key(compress_key: Option<usize>) -> Result<usize> {
    compress_key
        .ok_or_else(|| CodecError("received CSC-compressed entry but no compress_key".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rec;
    use papar_config::input::FieldType;

    fn fixed_schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            ("a", FieldType::Integer),
            ("b", FieldType::Long),
            ("c", FieldType::Double),
        ]))
    }

    fn str_schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            ("k", FieldType::Str),
            ("n", FieldType::Integer),
        ]))
    }

    /// A group of `records`, its members as rows of `schema`.
    fn group_of(key: Value, schema: &Arc<Schema>, records: &[Record]) -> PackedRecord {
        PackedRecord {
            key,
            members: Rows::from_records(schema.clone(), records).unwrap(),
        }
    }

    #[test]
    fn value_view_matches_owned_decoder() -> Result<()> {
        for v in [
            Value::Int(-3),
            Value::Long(1 << 40),
            Value::Double(0.5),
            Value::Str("zürich".into()),
        ] {
            let mut buf = Vec::new();
            wire::encode_value(&v, &mut buf)?;
            let view = ValueView::parse(&mut Reader::new(&buf))?;
            assert_eq!(view.to_value(), v);
            // Untagged, as a record field.
            let ty = wire::tag_type(buf[0])?;
            assert_eq!(
                ValueView::parse_field(&mut Reader::new(&buf[1..]), ty)?,
                view
            );
        }
        // A string is its one-byte length below 128, then its bytes.
        let mut buf = Vec::new();
        wire::encode_value(&Value::Str("zürich".into()), &mut buf)?;
        assert_eq!(buf[..2], [3, 7]);
        // Invalid UTF-8 is rejected at parse, like the owned path.
        let bad = [3u8, 2, 0xFF, 0xFE];
        assert!(ValueView::parse(&mut Reader::new(&bad)).is_err());
        Ok(())
    }

    fn encode_entry_rec(rec: &Record, schema: &Schema) -> Vec<u8> {
        let mut buf = Vec::new();
        wire::encode_record(rec, schema, &mut buf).unwrap();
        buf
    }

    #[test]
    fn entry_view_rec_roundtrip() {
        let schema = fixed_schema();
        let rec = rec![1, 2i64, 3.0];
        let buf = encode_entry_rec(&rec, &schema);
        let view = EntryView::parse(&mut Reader::new(&buf), ENTRY_REC, &schema, None).unwrap();
        assert_eq!(view.encoded_len(), buf.len());
        assert_eq!(view.record_count(), 1);
        let mut out = vec![rec![0, 0i64, 0.0]];
        view.decode_into(&mut out).unwrap();
        assert_eq!(out[1], rec, "appended after what the vector held");
        assert!(view.decode_group().is_err(), "a record is not a group");
    }

    /// The tag of a packed group's entry: uncompressed, or CSC.
    fn group_tag(csc: Option<usize>) -> u8 {
        if csc.is_some() {
            ENTRY_PACKED_CSC
        } else {
            ENTRY_PACKED
        }
    }

    /// A packed group's entry: uncompressed, or CSC with column `csc`
    /// factored out.
    fn encode_entry_group(
        group: &PackedRecord,
        schema: &Schema,
        csc: Option<usize>,
    ) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        wire::encode_value(&group.key, &mut buf)?;
        buf.extend_from_slice(&(group.members.len() as u32).to_le_bytes());
        let records = group.members.to_records();
        match csc {
            None => {
                for r in &records {
                    wire::encode_record(r, schema, &mut buf)?;
                }
            }
            Some(key_idx) => {
                for (fi, field) in schema.fields().iter().enumerate() {
                    for r in records.iter().filter(|_| fi != key_idx) {
                        wire::encode_field(r.require(fi)?, field.ty, &mut buf)?;
                    }
                }
            }
        }
        Ok(buf)
    }

    #[test]
    fn entry_view_packed_and_csc_roundtrip() -> Result<()> {
        let schema = str_schema();
        let records = [rec!["k1", 1], rec!["k1", 2], rec!["k1", 3]];
        let group = group_of(Value::Str("k1".into()), &schema, &records);
        // Packed (uncompressed): key + count + rows.
        let packed = encode_entry_group(&group, &schema, None)?;
        let view = EntryView::parse(&mut Reader::new(&packed), ENTRY_PACKED, &schema, None)?;
        assert_eq!(view.record_count(), 3);
        assert_eq!(view.decode_group()?, group);
        let mut members = Vec::new();
        view.decode_into(&mut members)?;
        assert_eq!(members, records);

        // CSC: key factored out of column 0.
        let csc = encode_entry_group(&group, &schema, Some(0))?;
        let view = EntryView::parse(&mut Reader::new(&csc), ENTRY_PACKED_CSC, &schema, Some(0))?;
        assert_eq!(view.record_count(), 3);
        let mut members = vec![rec!["before", 0]];
        view.decode_into(&mut members)?;
        assert_eq!(members[1..], records[..]);
        assert_eq!(view.decode_group()?, group);
        // Missing compress_key on a CSC entry is an error, not a guess.
        assert!(EntryView::parse(&mut Reader::new(&csc), ENTRY_PACKED_CSC, &schema, None).is_err());
        Ok(())
    }

    /// Every field of a record, of a packed group's first member and of a
    /// CSC group (its factored group key, or its column's first cell) is
    /// found as exactly its bytes, and reads back as the member's value.
    #[test]
    fn entry_view_finds_its_key_field_for_every_tag() -> Result<()> {
        let schema = Arc::new(Schema::new(vec![
            ("n", FieldType::Integer),
            ("k", FieldType::Str),
            ("w", FieldType::Long),
        ]));
        let records = [rec![1, "k1", 10i64], rec![2, "k1", 20i64]];
        let group = group_of(Value::Str("k1".into()), &schema, &records);
        let key_of = |bytes: &[u8], tag: u8, compress: Option<usize>, field| -> Result<Value> {
            let view = EntryView::parse(&mut Reader::new(bytes), tag, &schema, compress)?;
            let (ty, key) = view.key(KeyField::new(&schema, field)?)?;
            let mut r = Reader::new(key);
            let value = wire::decode_field(&mut r, ty)?;
            assert_eq!(r.remaining(), 0, "the key is exactly its bytes");
            Ok(value)
        };
        let record = encode_entry_rec(&records[1], &schema);
        let packed = encode_entry_group(&group, &schema, None)?;
        let csc = encode_entry_group(&group, &schema, Some(1))?;
        for field in 0..3 {
            let first = records[0].require(field)?;
            let second = records[1].require(field)?;
            assert_eq!(&key_of(&record, ENTRY_REC, None, field)?, second);
            assert_eq!(&key_of(&packed, ENTRY_PACKED, None, field)?, first);
            assert_eq!(&key_of(&csc, ENTRY_PACKED_CSC, Some(1), field)?, first);
        }
        assert!(KeyField::new(&schema, 3).is_err(), "no field 3");
        let empty = group_of(Value::Int(0), &schema, &[]);
        for csc in [None, Some(1)] {
            let bytes = encode_entry_group(&empty, &schema, csc)?;
            let key = key_of(&bytes, group_tag(csc), csc, 0);
            assert!(key.is_err(), "an empty group has no key");
        }
        Ok(())
    }

    #[test]
    fn entry_view_rejects_bad_tags_and_truncation() {
        let schema = fixed_schema();
        assert!(EntryView::parse(&mut Reader::new(&[0; 20]), 9, &schema, None).is_err());
        let buf = encode_entry_rec(&rec![1, 2i64, 3.0], &schema);
        for cut in 0..buf.len() {
            let parsed = EntryView::parse(&mut Reader::new(&buf[..cut]), ENTRY_REC, &schema, None);
            assert!(parsed.is_err());
        }
    }
}
