//! Dataset fragments in the flat, packed or row format.

use std::fmt;
use std::sync::Arc;

use crate::packed::{pack, unpack, PackedRecord};
use crate::record::Record;
use crate::value::Value;
use crate::wire::{
    check_record, decode_field, decode_fixed, decode_fixed_record, decode_record, encode_record,
    field_spans, skip_record, Reader,
};
use crate::{CodecError, Result, Schema};

/// A fragment of a dataset as held by one node of the cluster.
///
/// A batch is the unit the operators transform. Its *format* is part of its
/// type, because PaPar's format operators (`orig`/`pack`/`unpack`) convert
/// between the two representations while basic operators require a specific
/// one (e.g. `distribute` with the `graphVertexCut` policy consumes packed
/// low-degree groups but flat high-degree edges — paper Figure 11).
///
/// Flat data comes in two forms. [`Batch::Rows`] keeps records as their
/// wire bytes (for a fixed-width schema, also their file bytes);
/// [`Batch::Flat`] holds decoded [`Record`]s. The two are the same
/// data: a `Rows` batch equals the `Flat` batch of the records it decodes
/// to, and encodes to the same wire bytes.
#[derive(Debug, Clone)]
pub enum Batch {
    /// Original flat record layout.
    Flat(Vec<Record>),
    /// Packed `(key, group)` layout produced by the `pack` format operator.
    Packed(Vec<PackedRecord>),
    /// Flat records as their wire bytes, row after row.
    Rows(Rows),
}

impl PartialEq for Batch {
    fn eq(&self, other: &Batch) -> bool {
        match (self, other) {
            (Batch::Flat(a), Batch::Flat(b)) => a == b,
            (Batch::Packed(a), Batch::Packed(b)) => a == b,
            (Batch::Rows(a), Batch::Rows(b)) => a == b,
            (Batch::Rows(rows), Batch::Flat(records))
            | (Batch::Flat(records), Batch::Rows(rows)) => rows.eq_records(records),
            _ => false,
        }
    }
}

impl Eq for Batch {}

impl Batch {
    /// An empty flat batch.
    pub fn empty() -> Self {
        Batch::Flat(Vec::new())
    }

    /// Number of *flat* records represented (packed groups count their
    /// members).
    pub fn record_count(&self) -> usize {
        match self {
            Batch::Flat(v) => v.len(),
            Batch::Packed(v) => v.iter().map(|p| p.members.len()).sum(),
            Batch::Rows(rows) => rows.len(),
        }
    }

    /// Number of top-level *entries* — what the distribute operator permutes:
    /// flat records, or whole packed groups (paper Figure 11 distributes
    /// low-degree groups as single entries).
    pub fn entry_count(&self) -> usize {
        match self {
            Batch::Flat(v) => v.len(),
            Batch::Packed(v) => v.len(),
            Batch::Rows(rows) => rows.len(),
        }
    }

    /// True when there are no records at all.
    pub fn is_empty(&self) -> bool {
        self.record_count() == 0
    }

    /// Borrow the flat records, or error if the batch is packed or rows
    /// (which hold no decoded records to borrow: [`Batch::flatten`]).
    pub fn as_flat(&self) -> Result<&[Record]> {
        match self {
            Batch::Flat(v) => Ok(v),
            Batch::Packed(_) => Err(CodecError(
                "expected flat records, found packed data (apply 'unpack' first)".into(),
            )),
            Batch::Rows(_) => Err(CodecError(
                "expected flat records, found rows (decode them with 'flatten' first)".into(),
            )),
        }
    }

    /// Borrow the packed groups, or error if the batch is flat.
    pub fn as_packed(&self) -> Result<&[PackedRecord]> {
        match self {
            Batch::Packed(v) => Ok(v),
            Batch::Flat(_) | Batch::Rows(_) => Err(not_packed()),
        }
    }

    /// Consume into flat records (rows decode), or error if packed.
    pub fn into_flat(self) -> Result<Vec<Record>> {
        match self {
            Batch::Flat(v) => Ok(v),
            Batch::Rows(rows) => Ok(rows.to_records()),
            Batch::Packed(_) => Err(CodecError(
                "expected flat records, found packed data (apply 'unpack' first)".into(),
            )),
        }
    }

    /// Consume into packed groups, or error if flat.
    pub fn into_packed(self) -> Result<Vec<PackedRecord>> {
        match self {
            Batch::Packed(v) => Ok(v),
            Batch::Flat(_) | Batch::Rows(_) => Err(not_packed()),
        }
    }

    /// Apply the `pack` format operator: group adjacent equal keys. The
    /// members are rows of `schema` (rows are packed as they are).
    pub fn pack_by(self, schema: &Arc<Schema>, key_idx: usize) -> Result<Batch> {
        let rows = match self {
            Batch::Flat(v) => Rows::from_records(schema.clone(), &v)?,
            Batch::Rows(rows) => rows,
            already @ Batch::Packed(_) => return Ok(already),
        };
        Ok(Batch::Packed(pack(rows, key_idx)?))
    }

    /// Apply the `unpack` format operator: flatten groups into rows of
    /// `schema`, their member bytes concatenated.
    pub fn unpack(self, schema: &Arc<Schema>) -> Result<Batch> {
        match self {
            Batch::Packed(v) => Ok(Batch::Rows(unpack(v, schema)?)),
            flat @ (Batch::Flat(_) | Batch::Rows(_)) => Ok(flat),
        }
    }

    /// Normalize to flat records regardless of current format (the paper's
    /// rule that "all data will be unpacked to make sure the output has the
    /// same format of input" at the end of a workflow).
    pub fn flatten(self) -> Vec<Record> {
        match self {
            Batch::Flat(v) => v,
            Batch::Packed(v) => v.iter().flat_map(|p| p.members.to_records()).collect(),
            Batch::Rows(rows) => rows.to_records(),
        }
    }
}

fn not_packed() -> CodecError {
    CodecError("expected packed data, found flat records (apply 'pack' first)".into())
}

/// Flat records kept as their wire bytes: `len` rows, back to back, each
/// the tag-less bytes [`crate::wire::encode_record`] writes. A row decodes
/// to a [`Record`] only where something needs its values.
///
/// Two layouts share the type. Rows of a fixed-width schema are `width`
/// bytes each, fields little-endian at their offsets — also the bytes of
/// a fixed-width binary input file — so a row is found by arithmetic.
/// Rows with a string field are walked in order: each string is its
/// length as a LEB128 varint (one byte below 128, at most five; see
/// [`crate::wire::put_len`]) and its UTF-8 bytes. Every constructor
/// checks what it is given (whole rows; for strings, every length —
/// canonical and at most `u32::MAX` — and every string's UTF-8), so a
/// row read later cannot fail.
#[derive(Clone)]
pub struct Rows {
    schema: Arc<Schema>,
    /// Bytes per row when the schema is fixed-width.
    width: Option<usize>,
    len: usize,
    bytes: Vec<u8>,
}

impl Rows {
    /// Rows over `bytes`, refused unless `schema` has a field and `bytes`
    /// holds whole, well-formed rows of it.
    pub fn new(schema: Arc<Schema>, bytes: Vec<u8>) -> Result<Rows> {
        if schema.is_empty() {
            return Err(CodecError("rows need a schema with a field".into()));
        }
        let width = schema.binary_record_width();
        let len = match width {
            Some(w) if !bytes.len().is_multiple_of(w) => {
                return Err(CodecError(format!(
                    "{} bytes are not whole {w}-byte rows",
                    bytes.len()
                )))
            }
            Some(w) => bytes.len() / w,
            None => {
                // All-ASCII bytes hold only ASCII strings: valid UTF-8.
                let utf8 = !bytes.is_ascii();
                let mut r = Reader::new(&bytes);
                let mut len = 0;
                while r.remaining() > 0 {
                    check_record(&mut r, &schema, utf8)
                        .map_err(|e| CodecError(format!("row {len}: {e}")))?;
                    len += 1;
                }
                len
            }
        };
        Ok(Rows {
            schema,
            width,
            len,
            bytes,
        })
    }

    /// `records` encoded as rows of `schema`.
    pub fn from_records(schema: Arc<Schema>, records: &[Record]) -> Result<Rows> {
        let mut bytes = Vec::new();
        for r in records {
            encode_record(r, &schema, &mut bytes)?;
        }
        Rows::new(schema, bytes)
    }

    /// The next `n` records at the cursor as rows of `schema`, copied
    /// once and checked as [`Rows::new`] checks them.
    pub(crate) fn read(r: &mut Reader<'_>, schema: Arc<Schema>, n: usize) -> Result<Rows> {
        let start = r.position();
        match schema.binary_record_width() {
            Some(w) => {
                r.read_bytes(n * w)?;
            }
            None => {
                for _ in 0..n {
                    skip_record(r, &schema)?;
                }
            }
        }
        Rows::new(schema, r.buffer()[start..r.position()].to_vec())
    }

    /// The schema every row follows.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Bytes per row, when the schema is fixed-width.
    pub fn width(&self) -> Option<usize> {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes of every row, back to back.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Every row, borrowed, in order.
    #[inline]
    pub fn iter(&self) -> RowIter<'_> {
        RowIter {
            schema: &self.schema,
            width: self.width,
            rest: &self.bytes,
            left: self.len,
        }
    }

    /// Every row decoded, in order.
    pub fn to_records(&self) -> Vec<Record> {
        self.iter().map(|row| row.to_record()).collect()
    }

    /// Cut into `n` contiguous parts of [`block_sizes`] rows, each in an
    /// exact-size buffer.
    pub fn split(self, n: usize) -> Vec<Rows> {
        let mut rows = self.iter();
        block_sizes(self.len, n)
            .map(|len| {
                let start = self.bytes.len() - rows.rest.len();
                match self.width {
                    Some(w) => rows.rest = &rows.rest[len * w..],
                    None => rows.by_ref().take(len).for_each(drop),
                }
                let end = self.bytes.len() - rows.rest.len();
                Rows {
                    schema: self.schema.clone(),
                    width: self.width,
                    len,
                    bytes: self.bytes[start..end].to_vec(),
                }
            })
            .collect()
    }

    /// Whether the rows decode to exactly `records`.
    fn eq_records(&self, records: &[Record]) -> bool {
        self.len() == records.len()
            && self
                .iter()
                .zip(records)
                .all(|(row, rec)| row.to_record() == *rec)
    }
}

/// Logical equality: rows of one schema are equal when their bytes are
/// (fields compare by total order, so equal values have equal bytes);
/// rows of different schemas compare decoded.
impl PartialEq for Rows {
    fn eq(&self, other: &Rows) -> bool {
        if self.schema == other.schema {
            self.len == other.len && self.bytes == other.bytes
        } else {
            self.eq_records(&other.to_records())
        }
    }
}

impl Eq for Rows {}

impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Rows").field(&self.to_records()).finish()
    }
}

/// The rows of a [`Rows`] batch, borrowed, in order: fixed-width rows by
/// arithmetic, the others by walking their string lengths.
pub struct RowIter<'a> {
    schema: &'a Arc<Schema>,
    width: Option<usize>,
    rest: &'a [u8],
    left: usize,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = RowRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<RowRef<'a>> {
        if self.left == 0 {
            return None;
        }
        let len = match self.width {
            Some(w) => w,
            None => row_len(self.rest, self.schema),
        };
        let (bytes, rest) = self.rest.split_at(len);
        self.rest = rest;
        self.left -= 1;
        Some(RowRef {
            schema: self.schema,
            bytes,
        })
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

/// The length of the checked row at the head of `bytes`, walked. Out of
/// line, so the fixed-width paths that share its callers stay small.
#[inline(never)]
fn row_len(bytes: &[u8], schema: &Schema) -> usize {
    field_spans(bytes, schema).map(<[u8]>::len).sum()
}

/// One row of a [`Rows`] batch, borrowed.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    schema: &'a Arc<Schema>,
    bytes: &'a [u8],
}

impl<'a> RowRef<'a> {
    /// The schema the row follows.
    pub fn schema(&self) -> &'a Arc<Schema> {
        self.schema
    }

    /// The row's bytes.
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// The value of field `idx`, read at its offset (after walking the
    /// fields before it, when they have strings); an index past the
    /// schema errors exactly like [`Record::require`].
    pub fn field(&self, idx: usize) -> Result<Value> {
        let fields = self.schema.fields();
        let field = fields.get(idx).ok_or_else(|| {
            CodecError(format!(
                "field index {idx} out of range for record of arity {}",
                fields.len()
            ))
        })?;
        if self.schema.binary_record_width().is_none() {
            return Ok(self.walked_field(idx));
        }
        let width = |ty: papar_config::input::FieldType| ty.binary_width().unwrap_or(0);
        let off: usize = fields[..idx].iter().map(|f| width(f.ty)).sum();
        Ok(decode_fixed(
            &self.bytes[off..off + width(field.ty)],
            field.ty,
        ))
    }

    /// Field `idx` (within the schema) of a row with strings, found by
    /// walking the fields before it. Out of line, like [`row_len`].
    #[inline(never)]
    fn walked_field(&self, idx: usize) -> Value {
        let span = field_spans(self.bytes, self.schema).nth(idx).unwrap();
        let ty = self.schema.fields()[idx].ty;
        decode_field(&mut Reader::new(span), ty).expect("rows are checked records")
    }

    /// The whole row decoded.
    pub fn to_record(&self) -> Record {
        if self.schema.binary_record_width().is_some() {
            return decode_fixed_record(self.bytes, self.schema);
        }
        self.walked_record()
    }

    /// A row with strings, decoded. Out of line, like [`row_len`].
    #[inline(never)]
    fn walked_record(&self) -> Record {
        decode_record(&mut Reader::new(self.bytes), self.schema).expect("rows are checked records")
    }
}

impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &RowRef<'_>) -> bool {
        self.to_record() == other.to_record()
    }
}

impl Eq for RowRef<'_> {}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("RowRef").field(&self.to_record()).finish()
    }
}

/// The sizes of `n` contiguous blocks of `len` items in block order, near
/// equal: the earlier blocks take the remainder, like HDFS block
/// assignment. How an input's records split across the nodes.
pub fn block_sizes(len: usize, n: usize) -> impl Iterator<Item = usize> {
    let n = n.max(1);
    (0..n).map(move |i| len / n + usize::from(i < len % n))
}

/// A batch together with the schema its records follow.
///
/// The schema travels with the data because add-on operators extend it
/// mid-workflow (e.g. the `indegree` attribute in the hybrid-cut).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dataset {
    /// The field layout of every record in `batch`.
    pub schema: Arc<Schema>,
    /// The records.
    pub batch: Batch,
}

impl Dataset {
    /// Create a dataset. Rows must be laid out by the dataset's schema.
    pub fn new(schema: Arc<Schema>, batch: Batch) -> Self {
        if let Batch::Rows(rows) = &batch {
            // Invariant: every producer of rows builds them with the schema
            // of the dataset it commits them to.
            assert!(
                Arc::ptr_eq(rows.schema(), &schema) || rows.schema() == &schema,
                "rows of schema {:?} in a dataset of schema {schema:?}",
                rows.schema()
            );
        }
        Dataset { schema, batch }
    }

    /// An empty flat dataset with the given schema.
    pub fn empty(schema: Arc<Schema>) -> Self {
        Dataset {
            schema,
            batch: Batch::empty(),
        }
    }

    /// Verify every record conforms to the schema (used by tests and debug
    /// assertions, not on the hot path).
    pub fn check_conformance(&self) -> Result<()> {
        let check = |r: &Record| -> Result<()> {
            if r.conforms_to(&self.schema) {
                Ok(())
            } else {
                Err(CodecError(format!(
                    "record {} does not conform to schema of arity {}",
                    r.display_tuple(),
                    self.schema.len()
                )))
            }
        };
        match &self.batch {
            Batch::Flat(v) => v.iter().try_for_each(check),
            Batch::Packed(v) => (v.iter().flat_map(|p| p.members.iter()))
                .try_for_each(|row| check(&row.to_record())),
            Batch::Rows(rows) => rows.iter().try_for_each(|row| check(&row.to_record())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rec;
    use papar_config::input::FieldType;

    fn pairs() -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            ("a", FieldType::Integer),
            ("b", FieldType::Integer),
        ]))
    }

    #[test]
    fn counts_distinguish_entries_and_records() {
        let flat = Batch::Flat(vec![rec![1, 1], rec![2, 1], rec![3, 2]]);
        assert_eq!(flat.record_count(), 3);
        assert_eq!(flat.entry_count(), 3);
        let packed = flat.clone().pack_by(&pairs(), 1).unwrap();
        assert_eq!(packed.record_count(), 3);
        assert_eq!(packed.entry_count(), 2);
    }

    #[test]
    fn format_conversions() {
        let rows = vec![rec![1, 1], rec![2, 1]];
        let b = Batch::Flat(rows.clone());
        let packed = b.pack_by(&pairs(), 1).unwrap();
        assert!(packed.as_packed().is_ok());
        assert!(packed.as_flat().is_err());
        let back = packed.unpack(&pairs()).unwrap();
        assert!(matches!(back, Batch::Rows(_)), "{back:?}");
        assert_eq!(back, Batch::Flat(rows));
    }

    #[test]
    fn pack_is_idempotent_and_unpack_too() {
        let b = Batch::Flat(vec![rec![1, 1]]).pack_by(&pairs(), 1).unwrap();
        let again = b.clone().pack_by(&pairs(), 1).unwrap();
        assert_eq!(b, again);
        let f = Batch::Flat(vec![rec![1, 1]]).unpack(&pairs()).unwrap();
        assert!(matches!(f, Batch::Flat(_)));
    }

    #[test]
    fn flatten_normalizes() {
        let rows = vec![rec![1, 1], rec![2, 1], rec![3, 2]];
        let packed = Batch::Flat(rows.clone()).pack_by(&pairs(), 1).unwrap();
        assert_eq!(packed.flatten(), rows);
    }

    #[test]
    fn conformance_check() {
        let schema = Arc::new(Schema::new(vec![
            ("a", FieldType::Integer),
            ("b", FieldType::Integer),
        ]));
        let good = Dataset::new(schema.clone(), Batch::Flat(vec![rec![1, 2]]));
        assert!(good.check_conformance().is_ok());
        let bad = Dataset::new(schema, Batch::Flat(vec![rec![1, "x"]]));
        assert!(bad.check_conformance().is_err());
    }

    fn int_schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            ("a", FieldType::Integer),
            ("b", FieldType::Long),
        ]))
    }

    fn rows_of(schema: &Arc<Schema>, records: &[Record]) -> Rows {
        let mut bytes = Vec::new();
        for r in records {
            crate::wire::encode_record(r, schema, &mut bytes).unwrap();
        }
        Rows::new(schema.clone(), bytes).unwrap()
    }

    #[test]
    fn rows_are_the_records_they_decode_to() {
        let schema = int_schema();
        let records = vec![rec![1, 10i64], rec![2, 20i64], rec![3, 30i64]];
        let rows = Batch::Rows(rows_of(&schema, &records));
        assert_eq!(rows, Batch::Flat(records.clone()));
        assert_eq!(Batch::Flat(records.clone()), rows);
        assert_ne!(rows, Batch::Flat(records[..2].to_vec()));
        assert_eq!((rows.record_count(), rows.entry_count()), (3, 3));
        assert!(rows.as_flat().is_err() && rows.as_packed().is_err());
        assert_eq!(rows.clone().into_flat().unwrap(), records);
        assert_eq!(rows.clone().flatten(), records);
        assert_eq!(
            rows.clone().pack_by(&schema, 0).unwrap(),
            Batch::Flat(records.clone()).pack_by(&schema, 0).unwrap()
        );
        let Batch::Rows(rows) = rows else {
            unreachable!()
        };
        let row = rows.iter().nth(1).unwrap();
        assert_eq!(row.field(1).unwrap(), Value::Long(20));
        assert_eq!(
            row.field(2).unwrap_err(),
            records[1].require(2).unwrap_err()
        );
        assert_eq!(row.to_record(), records[1]);
        let parts = rows.clone().split(2);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].to_records(), records[..2].to_vec());
        assert_eq!(parts[1].to_records(), records[2..].to_vec());
        let ds = Dataset::new(schema.clone(), Batch::Rows(rows));
        assert!(ds.check_conformance().is_ok());
    }

    #[test]
    fn string_rows_are_walked_in_order() {
        let schema = Arc::new(Schema::new(vec![
            ("s", FieldType::Str),
            ("n", FieldType::Integer),
            ("t", FieldType::Str),
        ]));
        let long = "fifteen bytes!!".repeat(2);
        let records = vec![
            rec!["", 1, "zürich"],
            rec![long.as_str(), -2, ""],
            rec!["x", 3, "y"],
        ];
        let rows = rows_of(&schema, &records);
        assert_eq!((rows.len(), rows.width()), (3, None));
        assert_eq!(rows.to_records(), records);
        assert_eq!(Batch::Rows(rows.clone()), Batch::Flat(records.clone()));
        let row = rows.iter().nth(1).unwrap();
        assert_eq!(row.field(0).unwrap(), Value::from(long.as_str()));
        assert_eq!(row.field(1).unwrap(), Value::Int(-2));
        assert_eq!(
            row.field(3).unwrap_err(),
            records[1].require(3).unwrap_err()
        );
        let parts = rows.clone().split(2);
        assert_eq!(parts[0].to_records(), records[..2].to_vec());
        assert_eq!(parts[1].to_records(), records[2..].to_vec());
        let mut bytes = Vec::new();
        crate::wire::encode_batch(&Batch::Rows(rows), &schema, &mut bytes).unwrap();
        let flat = Batch::Flat(records);
        let mut want = Vec::new();
        crate::wire::encode_batch(&flat, &schema, &mut want).unwrap();
        assert_eq!(bytes, want);
    }

    #[test]
    fn rows_refuse_ragged_bytes_bad_strings_and_empty_schemas() {
        assert!(Rows::new(int_schema(), vec![0; 11]).is_err());
        assert!(Rows::new(int_schema(), vec![0; 24]).is_ok());
        let text = Arc::new(Schema::new(vec![("s", FieldType::Str)]));
        assert_eq!(Rows::new(text.clone(), Vec::new()).unwrap().len(), 0);
        assert_eq!(Rows::new(text.clone(), vec![1, b'a']).unwrap().len(), 1);
        // A length running past the bytes, a cut length, a length with a
        // redundant zero byte, one above `u32::MAX`, invalid UTF-8.
        for bad in [
            &[2, b'a'][..],
            &[0x80],
            &[0x80, 0],
            &[0xff, 0xff, 0xff, 0xff, 0x1f],
            &[1, 0xff],
        ] {
            assert!(Rows::new(text.clone(), bad.to_vec()).is_err(), "{bad:?}");
        }
        let empty = Arc::new(Schema::new(Vec::<(String, FieldType)>::new()));
        assert!(Rows::new(empty, Vec::new()).is_err());
    }

    #[test]
    #[should_panic(expected = "rows of schema")]
    fn a_dataset_refuses_rows_of_another_schema() {
        let other = Arc::new(Schema::new(vec![("z", FieldType::Double)]));
        let rows = Rows::new(other, vec![0; 8]).unwrap();
        let _ = Dataset::new(int_schema(), Batch::Rows(rows));
    }

    #[test]
    fn into_conversions_error_on_wrong_format() {
        let flat = Batch::Flat(vec![rec![1]]);
        assert!(flat.clone().into_packed().is_err());
        assert!(flat.into_flat().is_ok());
    }
}
